// Package geodata synthesizes the drainage-crossing training corpus that
// stands in for the paper's HRDEM + aerial-orthophoto dataset (Table 1).
//
// Each sample ("chip") is a small multi-channel raster: a fractal digital
// elevation model with a meandering drainage channel carved into it, an
// optional road embankment, and — for positive samples — a culvert-style
// drainage crossing where the road crosses the channel. From the terrain a
// four-band orthophoto (R, G, B, NIR) is rendered, and the NDVI and NDWI
// vegetation/water indices are derived exactly as in the paper
// (equations 1 and 2).
package geodata

import (
	"math"

	"drainnas/internal/parallel"
	"drainnas/internal/tensor"
)

// valueNoise is deterministic lattice value noise: pseudo-random values on
// integer lattice points, smoothly interpolated between them. Summing
// octaves yields the fractal terrain base.
type valueNoise struct {
	seed uint64
}

// hash2 maps lattice coordinates to a uniform value in [0, 1).
func (v valueNoise) hash2(x, y int64) float64 {
	h := v.seed
	h ^= uint64(x) * 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h ^= uint64(y) * 0xD1B54A32D192ED03
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}

// smoothstep is the C¹ interpolation weight 3t² - 2t³.
func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

// latticeColumns is the x side of one octave, shared by every raster row:
// each pixel's lattice column and its smoothstep weight.
type latticeColumns struct {
	ix []int64
	tx []float64
}

// columns returns the lattice columns of a size-pixel row sampled at
// x = px·inv·freq.
func columns(size int, inv, freq float64) latticeColumns {
	c := latticeColumns{ix: make([]int64, size), tx: make([]float64, size)}
	for px := range c.ix {
		x := float64(px) * inv * freq
		x0 := math.Floor(x)
		c.ix[px] = int64(x0)
		c.tx[px] = smoothstep(x - x0)
	}
	return c
}

// blend sets dst[px] to the noise along lattice row iy, blended across x:
// hash(ix, iy) + (hash(ix+1, iy) - hash(ix, iy))·tx. A lattice cell spans
// many pixels, so its two corner hashes are reused until x enters the next
// cell.
func (v valueNoise) blend(dst []float64, c latticeColumns, iy int64) {
	var ix int64
	var h0, h1 float64
	for px := range dst {
		if px == 0 || c.ix[px] != ix {
			ix = c.ix[px]
			h0, h1 = v.hash2(ix, iy), v.hash2(ix+1, iy)
		}
		dst[px] = h0 + (h1-h0)*c.tx[px]
	}
}

// latticeRow caches one octave's x-blended values on the lattice rows
// above (top) and below (bot) the raster rows in lattice row iy, so every
// raster row in that lattice row pays one y-lerp per pixel.
type latticeRow struct {
	iy       int64
	top, bot []float64
}

// at makes the cache hold lattice row iy. Raster rows advance downward, so
// moving to the next lattice row reuses the old bot as the new top.
func (r *latticeRow) at(v valueNoise, c latticeColumns, iy int64) {
	switch {
	case r.top == nil:
		r.top, r.bot = make([]float64, len(c.ix)), make([]float64, len(c.ix))
		v.blend(r.top, c, iy)
	case iy == r.iy:
		return
	case iy == r.iy+1:
		r.top, r.bot = r.bot, r.top
	default:
		v.blend(r.top, c, iy)
	}
	v.blend(r.bot, c, iy+1)
	r.iy = iy
}

// FractalField fills a size×size grid with fractal noise at the given base
// frequency (lattice cells across the grid): `octaves` octaves of value
// noise with per-octave gain (persistence) and lacunarity 2, normalized to
// [0, 1]. A pixel's lattice column and x weight do not depend on its row,
// so they are computed once per octave; raster rows in one lattice row
// share its x-blended values, cached per octave, and pay one y-lerp per
// pixel. Every cell depends only on its own coordinates, so the rows are
// filled in bands on all cores with the same bytes a serial fill gives.
func FractalField(seed uint64, size int, baseFreq float64, octaves int, persistence float64) []float64 {
	n := valueNoise{seed: seed}
	out := make([]float64, size*size)
	inv := baseFreq / float64(size)
	norm, gain := 0.0, 1.0
	cols := make([]latticeColumns, octaves)
	for o, freq := 0, 1.0; o < octaves; o, freq = o+1, freq*2 {
		norm += gain
		gain *= persistence
		cols[o] = columns(size, inv, freq)
	}
	parallel.ForChunked(size, 0, func(y0, y1 int) {
		rows := make([]latticeRow, octaves)
		for y := y0; y < y1; y++ {
			row := out[y*size : (y+1)*size]
			fy := float64(y) * inv
			amp, freq := 1.0, 1.0
			for o := 0; o < octaves; o++ {
				ly := fy * freq
				ly0 := math.Floor(ly)
				ty := smoothstep(ly - ly0)
				r := &rows[o]
				r.at(n, cols[o], int64(ly0))
				top, bot := r.top, r.bot[:len(row)]
				for px, t := range top[:len(row)] {
					row[px] += amp * (t + (bot[px]-t)*ty)
				}
				amp *= persistence
				freq *= 2
			}
			if norm != 0 {
				for px := range row {
					row[px] /= norm
				}
			}
		}
	})
	return out
}

// gaussian returns exp(-d²/(2σ²)).
func gaussian(d, sigma float64) float64 {
	return math.Exp(-d * d / (2 * sigma * sigma))
}

// clamp01 clips v to [0, 1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// jitter returns a uniform value in [-amp, amp] from rng.
func jitter(rng *tensor.RNG, amp float64) float64 {
	return rng.Uniform(-amp, amp)
}
