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
	"sync"

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

// fill sets the lattice columns of a row sampled at x = px·inv·freq.
func (c latticeColumns) fill(inv, freq float64) {
	for px := range c.ix {
		x := float64(px) * inv * freq
		x0 := math.Floor(x)
		c.ix[px] = int64(x0)
		c.tx[px] = smoothstep(x - x0)
	}
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
// raster row in that lattice row pays one y-lerp per pixel. It holds
// nothing until its first at.
type latticeRow struct {
	iy       int64
	held     bool
	top, bot []float64
}

// at makes the cache hold lattice row iy. Raster rows advance downward, so
// moving to the next lattice row reuses the old bot as the new top.
func (r *latticeRow) at(v valueNoise, c latticeColumns, iy int64) {
	switch {
	case r.held && iy == r.iy:
		return
	case r.held && iy == r.iy+1:
		r.top, r.bot = r.bot, r.top
	default:
		v.blend(r.top, c, iy)
	}
	v.blend(r.bot, c, iy+1)
	r.iy, r.held = iy, true
}

// scratch is one goroutine's synthesis buffers: a FractalField's lattice
// columns or one band's lattice rows, a band of alongLine's distance rows,
// one of RenderBands' deviate bands. Each is borrowed from scratchPool for
// one call or band and given back, so generating a corpus allocates them
// about once per worker instead of once per call and band. A borrowed
// buffer holds whatever its last user left in it.
type scratch struct {
	f    []float64
	ix   []int64
	cols []latticeColumns
	rows []latticeRow
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func (s *scratch) put() { scratchPool.Put(s) }

// floats returns n of s's float64s.
func (s *scratch) floats(n int) []float64 {
	if cap(s.f) < n {
		s.f = make([]float64, n)
	}
	return s.f[:n]
}

// columns returns the lattice columns of octaves octaves of a size-pixel
// row, octave o sampled at x = px·inv·2^o.
func (s *scratch) columns(octaves, size int, inv float64) []latticeColumns {
	if cap(s.ix) < octaves*size {
		s.ix = make([]int64, octaves*size)
	}
	tx := s.floats(octaves * size)
	s.cols = s.cols[:0]
	for o, freq := 0, 1.0; o < octaves; o, freq = o+1, freq*2 {
		c := latticeColumns{ix: s.ix[o*size : (o+1)*size], tx: tx[o*size : (o+1)*size]}
		c.fill(inv, freq)
		s.cols = append(s.cols, c)
	}
	return s.cols
}

// latticeRows returns octaves empty lattice-row caches for size-pixel rows.
func (s *scratch) latticeRows(octaves, size int) []latticeRow {
	f := s.floats(2 * octaves * size)
	s.rows = s.rows[:0]
	for o := 0; o < 2*octaves; o += 2 {
		s.rows = append(s.rows, latticeRow{
			top: f[o*size : (o+1)*size : (o+1)*size],
			bot: f[(o+1)*size : (o+2)*size : (o+2)*size],
		})
	}
	return s.rows
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
	for range octaves {
		norm += gain
		gain *= persistence
	}
	cs := getScratch()
	defer cs.put()
	cols := cs.columns(octaves, size, inv)
	parallel.ForChunked(size, 0, func(y0, y1 int) {
		s := getScratch()
		defer s.put()
		rows := s.latticeRows(octaves, size)
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
