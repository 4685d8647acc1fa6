package geodata

import (
	"fmt"
	"math"

	"drainnas/internal/tensor"
)

// Tile is a large synthesized watershed raster with known drainage-crossing
// locations — the analogue of one study region's HRDEM/orthophoto mosaic
// from which the paper's training chips were segmented.
type Tile struct {
	Region  Region
	Terrain *Terrain
	// Bands is the tile-level 7-band render (band-major, like Chip.Bands).
	Bands []float32
	// Crossings are the stamped culvert locations.
	Crossings []struct{ X, Y int }
}

// GenerateTile synthesizes a size×size watershed with several meandering
// channels, several roads, and a crossing stamped at every road–channel
// intersection. The drainage network stays extractable from the DEM
// (DrainageDensity), mirroring the paper's HRDEM-derived hydrography.
func GenerateTile(region Region, size, nChannels, nRoads int, rng *tensor.RNG) *Tile {
	if size < 32 {
		panic(fmt.Sprintf("geodata: tile size %d too small", size))
	}
	t := NewTerrain(size)
	base := FractalField(rng.Uint64(), size, 4.0, 6, region.Roughness)
	gx, gy := jitter(rng, 1), jitter(rng, 1)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			g := (gx*float64(x) + gy*float64(y)) / float64(size)
			t.Elev[y*size+x] = region.Relief * (base[y*size+x] + 0.3*g)
		}
	}

	var channels []polyline
	for c := 0; c < nChannels; c++ {
		line := meander(rng, size, 0, 0, false)
		channels = append(channels, line)
		t.CarveChannel(line, rng.Uniform(1.2, 2.5), region.Relief*rng.Uniform(0.25, 0.5))
	}
	var roads []polyline
	for r := 0; r < nRoads; r++ {
		line := straightRoad(rng, size, 0, 0, false)
		roads = append(roads, line)
		t.RaiseRoad(line, rng.Uniform(1.5, 2.5), rng.Uniform(1.5, 3), region.Relief*rng.Uniform(0.15, 0.3))
	}

	tile := &Tile{Region: region, Terrain: t}
	for _, ch := range channels {
		for _, rd := range roads {
			for _, pt := range polylineIntersections(ch, rd) {
				x, y := int(pt.X+0.5), int(pt.Y+0.5)
				if x < 2 || y < 2 || x >= size-2 || y >= size-2 {
					continue
				}
				t.StampCrossing(pt.X, pt.Y, rng.Uniform(2, 3.5), region.Relief*rng.Uniform(0.2, 0.4))
				tile.Crossings = append(tile.Crossings, struct{ X, Y int }{x, y})
			}
		}
	}
	tile.Bands = RenderBands(t, region, rng)
	return tile
}

// polylineIntersections returns the intersection points of two polylines.
func polylineIntersections(a, b polyline) []struct{ X, Y float64 } {
	var out []struct{ X, Y float64 }
	for i := 0; i+1 < len(a); i++ {
		for j := 0; j+1 < len(b); j++ {
			if x, y, ok := segmentIntersection(
				a[i].X, a[i].Y, a[i+1].X, a[i+1].Y,
				b[j].X, b[j].Y, b[j+1].X, b[j+1].Y); ok {
				out = append(out, struct{ X, Y float64 }{x, y})
			}
		}
	}
	return out
}

// segmentIntersection computes the intersection of segments p1p2 and p3p4.
func segmentIntersection(x1, y1, x2, y2, x3, y3, x4, y4 float64) (x, y float64, ok bool) {
	d := (x2-x1)*(y4-y3) - (y2-y1)*(x4-x3)
	if math.Abs(d) < 1e-12 {
		return 0, 0, false // parallel
	}
	t := ((x3-x1)*(y4-y3) - (y3-y1)*(x4-x3)) / d
	u := ((x3-x1)*(y2-y1) - (y3-y1)*(x2-x1)) / d
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return 0, 0, false
	}
	return x1 + t*(x2-x1), y1 + t*(y2-y1), true
}

// ExtractChips segments the tile into labeled chips: positives centered on
// crossings (with jitter), negatives sampled at least minDist cells from
// every crossing, up to nNeg of them. Chips are crops of the tile-level
// bands, exactly as the paper's segmentation crops its mosaics.
func (t *Tile) ExtractChips(chipSize, nNeg int, rng *tensor.RNG) (positives, negatives []Chip) {
	size := t.Terrain.Size
	if chipSize >= size {
		panic(fmt.Sprintf("geodata: chip %d does not fit tile %d", chipSize, size))
	}
	half := chipSize / 2
	crop := func(cx, cy int) Chip {
		x0 := clampInt(cx-half, 0, size-chipSize)
		y0 := clampInt(cy-half, 0, size-chipSize)
		bands := make([]float32, NumBands*chipSize*chipSize)
		for b := 0; b < NumBands; b++ {
			src := t.Bands[b*size*size : (b+1)*size*size]
			dst := bands[b*chipSize*chipSize : (b+1)*chipSize*chipSize]
			for y := 0; y < chipSize; y++ {
				copy(dst[y*chipSize:(y+1)*chipSize], src[(y0+y)*size+x0:(y0+y)*size+x0+chipSize])
			}
		}
		return Chip{Region: t.Region.Name, Size: chipSize, Bands: bands}
	}

	for _, c := range t.Crossings {
		jx := c.X + int(jitter(rng, float64(chipSize)*0.15))
		jy := c.Y + int(jitter(rng, float64(chipSize)*0.15))
		chip := crop(jx, jy)
		chip.Label = 1
		positives = append(positives, chip)
	}

	minDist := float64(chipSize)
	attempts := 0
	for len(negatives) < nNeg && attempts < nNeg*50 {
		attempts++
		cx := rng.Intn(size-chipSize) + half
		cy := rng.Intn(size-chipSize) + half
		tooClose := false
		for _, c := range t.Crossings {
			if math.Hypot(float64(cx-c.X), float64(cy-c.Y)) < minDist {
				tooClose = true
				break
			}
		}
		if tooClose {
			continue
		}
		chip := crop(cx, cy)
		chip.Label = 0
		negatives = append(negatives, chip)
	}
	return positives, negatives
}

// DrainageDensity returns the fraction of tile cells whose flow
// accumulation meets the threshold — the extracted drainage network of the
// DEM, as a hydrography summary statistic for validating the synthesized
// network. Each call runs FlowAccumulation over the whole tile.
func (t *Tile) DrainageDensity(threshold float64) float64 {
	acc := t.Terrain.FlowAccumulation()
	cells := 0
	for _, a := range acc {
		if a >= threshold {
			cells++
		}
	}
	return float64(cells) / float64(len(acc))
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
