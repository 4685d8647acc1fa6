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

// addRow adds one octave along a raster row: dst[px] += amp·noise(px·inv·freq, y),
// where noise blends the four lattice corners around the point with
// smoothstep weights. The lattice row is fixed along a raster row and a
// lattice cell spans many pixels, so the corner hashes are reused until x
// enters the next cell.
func (v valueNoise) addRow(dst []float64, inv, freq, y, amp float64) {
	y0 := math.Floor(y)
	ty := smoothstep(y - y0)
	iy := int64(y0)
	var ix int64
	var v00, v10, v01, v11 float64
	for px := range dst {
		x := float64(px) * inv * freq
		x0 := math.Floor(x)
		tx := smoothstep(x - x0)
		if px == 0 || int64(x0) != ix {
			ix = int64(x0)
			v00 = v.hash2(ix, iy)
			v10 = v.hash2(ix+1, iy)
			v01 = v.hash2(ix, iy+1)
			v11 = v.hash2(ix+1, iy+1)
		}
		top := v00 + (v10-v00)*tx
		bot := v01 + (v11-v01)*tx
		dst[px] += amp * (top + (bot-top)*ty)
	}
}

// FractalField fills a size×size grid with fractal noise at the given base
// frequency (lattice cells across the grid): `octaves` octaves of value
// noise with per-octave gain (persistence) and lacunarity 2, normalized to
// [0, 1]. Every cell depends only on its own coordinates, so the rows are
// filled in bands on all cores with the same bytes a serial fill gives.
func FractalField(seed uint64, size int, baseFreq float64, octaves int, persistence float64) []float64 {
	n := valueNoise{seed: seed}
	out := make([]float64, size*size)
	inv := baseFreq / float64(size)
	norm, gain := 0.0, 1.0
	for o := 0; o < octaves; o++ {
		norm += gain
		gain *= persistence
	}
	parallel.ForChunked(size, 0, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			row := out[y*size : (y+1)*size]
			fy := float64(y) * inv
			amp, freq := 1.0, 1.0
			for o := 0; o < octaves; o++ {
				n.addRow(row, inv, freq, fy*freq, amp)
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
