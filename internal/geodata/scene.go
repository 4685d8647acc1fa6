package geodata

import (
	"math"

	"drainnas/internal/tensor"
)

// SceneKind enumerates the layouts a chip can have. Positive chips always
// contain a crossing; negative chips are drawn from the three non-crossing
// layouts so the classifier cannot shortcut on "any road" or "any channel".
type SceneKind int

// The scene layouts.
const (
	SceneCrossing    SceneKind = iota // channel + road intersecting (label 1)
	SceneChannelOnly                  // channel, no road
	SceneRoadOnly                     // road, no channel
	SceneParallel                     // channel and road present but disjoint
)

// Chip is one training sample: a 7-band raster in band order
// [DEM, R, G, B, NIR, NDVI, NDWI] plus its label and provenance.
type Chip struct {
	Region string
	Label  int // 1 = contains a drainage crossing
	Size   int
	// Bands is length 7*Size*Size, band-major.
	Bands []float32
}

// NumBands is the full channel count of a chip.
const NumBands = 7

// Band indices into Chip.Bands.
const (
	BandDEM = iota
	BandRed
	BandGreen
	BandBlue
	BandNIR
	BandNDVI
	BandNDWI
)

// BandNames lists the chip band order.
var BandNames = [NumBands]string{"DEM", "RED", "GREEN", "BLUE", "NIR", "NDVI", "NDWI"}

// meander builds a roughly vertical polyline through the chip whose
// horizontal position wanders randomly, pinned to pass through
// (crossX, crossY) when pin is true.
func meander(rng *tensor.RNG, size int, crossX, crossY float64, pin bool) polyline {
	const steps = 8
	line := make(polyline, 0, steps+1)
	x := rng.Uniform(0.25, 0.75) * float64(size)
	if pin {
		x = crossX + jitter(rng, float64(size)*0.05)
	}
	for i := 0; i <= steps; i++ {
		y := float64(i) / steps * float64(size-1)
		wander := jitter(rng, float64(size)*0.08)
		px := x + wander
		if pin {
			// Pull the channel through the crossing point near its row.
			pull := gaussian(y-crossY, float64(size)*0.15)
			px = px*(1-pull) + crossX*pull
		}
		line = append(line, struct{ X, Y float64 }{clampF(px, 1, float64(size-2)), y})
	}
	return line
}

// straightRoad builds a near-horizontal road polyline through (crossX,
// crossY) when pin is true, otherwise through a random row.
func straightRoad(rng *tensor.RNG, size int, crossX, crossY float64, pin bool) polyline {
	y := rng.Uniform(0.25, 0.75) * float64(size)
	if pin {
		y = crossY
	}
	slope := jitter(rng, 0.25)
	y0 := y - slope*float64(size)/2
	y1 := y + slope*float64(size)/2
	if pin {
		// Keep the road passing through the pinned point exactly.
		y0 = crossY - slope*crossX
		y1 = crossY + slope*(float64(size-1)-crossX)
	}
	return polyline{
		{X: 0, Y: clampF(y0, 1, float64(size-2))},
		{X: float64(size - 1), Y: clampF(y1, 1, float64(size-2))},
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BuildScene synthesizes a terrain of the given kind for a region: elevation
// and masks. Callers that need the drainage network call FlowAccumulation.
func BuildScene(region Region, kind SceneKind, size int, rng *tensor.RNG) *Terrain {
	t := NewTerrain(size)
	// Fractal base with a gentle regional gradient so water has somewhere
	// to flow.
	base := FractalField(rng.Uint64(), size, 3.0, 5, region.Roughness)
	gx := jitter(rng, 1)
	gy := jitter(rng, 1)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			g := (gx*float64(x) + gy*float64(y)) / float64(size)
			t.Elev[y*size+x] = region.Relief * (base[y*size+x] + 0.3*g)
		}
	}

	crossX := float64(size)/2 + jitter(rng, float64(size)*0.12)
	crossY := float64(size)/2 + jitter(rng, float64(size)*0.12)
	chanWidth := rng.Uniform(1.2, 2.5)
	chanDepth := region.Relief * rng.Uniform(0.25, 0.5)
	roadCrown := rng.Uniform(1.5, 2.5)
	roadShoulder := rng.Uniform(1.5, 3)
	roadHeight := region.Relief * rng.Uniform(0.15, 0.3)

	switch kind {
	case SceneCrossing:
		t.CarveChannel(meander(rng, size, crossX, crossY, true), chanWidth, chanDepth)
		t.RaiseRoad(straightRoad(rng, size, crossX, crossY, true), roadCrown, roadShoulder, roadHeight)
		t.StampCrossing(crossX, crossY, rng.Uniform(2, 3.5), chanDepth*0.8)
	case SceneChannelOnly:
		t.CarveChannel(meander(rng, size, 0, 0, false), chanWidth, chanDepth)
	case SceneRoadOnly:
		t.RaiseRoad(straightRoad(rng, size, 0, 0, false), roadCrown, roadShoulder, roadHeight)
	case SceneParallel:
		// Channel down the left third, road across the bottom quarter —
		// both features present, geometrically disjoint.
		chanX := rng.Uniform(0.12, 0.3) * float64(size)
		roadY := rng.Uniform(0.72, 0.88) * float64(size)
		line := meander(rng, size, chanX, float64(size)*0.2, true)
		// Truncate the channel before it reaches the road's row.
		var clipped polyline
		for _, p := range line {
			if p.Y < roadY-6 {
				clipped = append(clipped, p)
			}
		}
		if len(clipped) < 2 {
			clipped = line[:2]
		}
		t.CarveChannel(clipped, chanWidth, chanDepth)
		t.RaiseRoad(polyline{
			{X: 0, Y: roadY}, {X: float64(size - 1), Y: roadY},
		}, roadCrown, roadShoulder, roadHeight)
	}
	return t
}

// negativeKind picks a non-crossing layout, weighted so that hard negatives
// (both features present, disjoint) appear often enough to prevent shortcut
// learning.
func negativeKind(rng *tensor.RNG) SceneKind {
	switch rng.Intn(3) {
	case 0:
		return SceneChannelOnly
	case 1:
		return SceneRoadOnly
	default:
		return SceneParallel
	}
}

// GenerateChip synthesizes one labeled chip for a region.
func GenerateChip(region Region, label, size int, rng *tensor.RNG) Chip {
	kind := SceneCrossing
	if label == 0 {
		kind = negativeKind(rng)
	}
	t := BuildScene(region, kind, size, rng)
	bands := RenderBands(t, region, rng)
	return Chip{Region: region.Name, Label: label, Size: size, Bands: bands}
}

// Band returns one band of the chip as a flat Size×Size slice (a view, not
// a copy).
func (c Chip) Band(b int) []float32 {
	n := c.Size * c.Size
	return c.Bands[b*n : (b+1)*n]
}

// Stats summarizes a band with mean and standard deviation.
func (c Chip) Stats(b int) (mean, std float64) {
	band := c.Band(b)
	if len(band) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, v := range band {
		sum += float64(v)
	}
	mean = sum / float64(len(band))
	ss := 0.0
	for _, v := range band {
		d := float64(v) - mean
		ss += d * d
	}
	std = math.Sqrt(ss / float64(len(band)))
	return mean, std
}
