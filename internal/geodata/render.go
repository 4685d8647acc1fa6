package geodata

import (
	"math"
	"sync"

	"drainnas/internal/parallel"
	"drainnas/internal/tensor"
)

// RenderBands turns a synthesized terrain into the chip's 7 bands:
// normalized DEM, the four orthophoto bands (RED, GREEN, BLUE, NIR) rendered
// from a simple land-cover model, and the derived NDVI / NDWI indices.
//
// Land-cover model: background is a soil/vegetation mix driven by a moisture
// field (low-lying and channel-adjacent cells are wetter and greener); the
// channel bed carries open water; the road crown is bare pavement.
// Reflectances follow the qualitative spectra the indices rely on:
// vegetation is NIR-bright and RED-dark (NDVI high), open water is
// GREEN-bright and NIR-dark (NDWI high), pavement is spectrally flat.
//
// The sensor noise is one RNG stream drawn in cell order, four deviates per
// cell. A producer goroutine draws them a row band at a time into a few
// recycled buffers while parallel.DefaultWorkers consumers each shade a
// whole band already drawn. A cell's shade reads only the terrain, the
// noise fields and its own deviates, so the bytes (and rng's final state)
// are those of a serial render.
func RenderBands(t *Terrain, region Region, rng *tensor.RNG) []float32 {
	size := t.Size
	n := size * size
	bands := make([]float32, NumBands*n)

	lo, hi := t.ElevRange()
	span := hi - lo
	if span < 1e-9 {
		span = 1
	}

	moistSeed, vegSeed := rng.Uint64(), rng.Uint64()
	nBands := (size + renderRows - 1) / renderRows
	workers := min(parallel.DefaultWorkers, nBands)
	// Every buffer is in exactly one of: free, full, the producer's hands
	// or a consumer's, so neither channel's sends ever block.
	nBuf := min(renderBuffers+workers, nBands)
	free := make(chan []float64, nBuf)
	full := make(chan band, nBuf)
	for k := 0; k < nBuf; k++ {
		free <- make([]float64, 4*renderRows*size)
	}
	// The producer starts before shader fills the noise fields, so the
	// first bands' deviates are drawn meanwhile.
	go func() {
		for y := 0; y < size; y += renderRows {
			dev := (<-free)[:4*min(renderRows, size-y)*size]
			rng.NormFloat64s(dev)
			full <- band{y * size, dev}
		}
		close(full)
	}()
	shade := shader(t, region, bands, lo, span, moistSeed, vegSeed)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for b := range full {
				for k, i := 0, b.first; k < len(b.dev); k, i = k+4, i+1 {
					shade(i, b.dev[k:k+4])
				}
				free <- b.dev
			}
		}()
	}
	wg.Wait()
	return bands
}

// band is one row band of sensor-noise deviates: four per cell, from cell
// first on.
type band struct {
	first int
	dev   []float64
}

// renderRows and renderBuffers bound the sensor-noise deviates a raster
// render holds: renderBuffers bands of renderRows rows, four per cell, for
// the producer to draw ahead, plus the one band each consumer shades.
const (
	renderRows    = 16
	renderBuffers = 3
)

// shader returns the per-cell render of RenderBands: cell i's seven band
// values from the terrain, the land-cover noise fields and the cell's four
// sensor-noise deviates (RED, GREEN, BLUE, NIR).
func shader(t *Terrain, region Region, bands []float32, lo, span float64, moistSeed, vegSeed uint64) func(i int, dev []float64) {
	size := t.Size
	n := size * size

	// Moisture: inverse normalized elevation plus channel proximity.
	moistNoise := FractalField(moistSeed, size, 5, 3, 0.5)
	vegNoise := FractalField(vegSeed, size, 6, 3, 0.5)

	dem := bands[BandDEM*n : (BandDEM+1)*n]
	red := bands[BandRed*n : (BandRed+1)*n]
	green := bands[BandGreen*n : (BandGreen+1)*n]
	blue := bands[BandBlue*n : (BandBlue+1)*n]
	nir := bands[BandNIR*n : (BandNIR+1)*n]
	ndvi := bands[BandNDVI*n : (BandNDVI+1)*n]
	ndwi := bands[BandNDWI*n : (BandNDWI+1)*n]

	sensorNoise := 0.015
	return func(i int, dev []float64) {
		elevN := (t.Elev[i] - lo) / span
		dem[i] = float32(elevN)

		moisture := clamp01(0.65*(1-elevN) + 0.5*t.ChannelMask[i] + 0.25*(moistNoise[i]-0.5))
		veg := clamp01(region.Vegetation + 0.5*(vegNoise[i]-0.5) + 0.3*(moisture-0.5))
		water := clamp01(t.ChannelMask[i]*1.2 - 0.35) // open water only near the channel axis
		road := t.RoadMask[i]
		if road > 0.6 {
			road = 1
		}

		// Component reflectances in [0, 1].
		soilR, soilG, soilB, soilN := 0.30+0.25*region.SoilTone, 0.26+0.18*region.SoilTone, 0.20+0.1*region.SoilTone, 0.42
		vegR, vegG, vegB, vegN := 0.06, 0.16, 0.05, 0.62
		watR, watG, watB, watN := 0.05, 0.14, 0.18, 0.02
		pavR, pavG, pavB, pavN := 0.38, 0.38, 0.40, 0.34

		// Background soil/vegetation mix, then water and pavement overlays.
		r := soilR*(1-veg) + vegR*veg
		g := soilG*(1-veg) + vegG*veg
		b := soilB*(1-veg) + vegB*veg
		nr := soilN*(1-veg) + vegN*veg
		r = r*(1-water) + watR*water
		g = g*(1-water) + watG*water
		b = b*(1-water) + watB*water
		nr = nr*(1-water) + watN*water
		r = r*(1-road) + pavR*road
		g = g*(1-road) + pavG*road
		b = b*(1-road) + pavB*road
		nr = nr*(1-road) + pavN*road

		// Hillshade modulation from the local gradient gives the orthophoto
		// the DEM-correlated texture real imagery has.
		shade := 1.0
		x, y := i%size, i/size
		if x+1 < size && y+1 < size {
			dzdx := t.Elev[i+1] - t.Elev[i]
			dzdy := t.Elev[i+size] - t.Elev[i]
			shade = clamp01(0.85 + 0.1*(dzdx-dzdy))
		}
		r = clamp01(r*shade + dev[0]*sensorNoise)
		g = clamp01(g*shade + dev[1]*sensorNoise)
		b = clamp01(b*shade + dev[2]*sensorNoise)
		nr = clamp01(nr*shade + dev[3]*sensorNoise)

		red[i] = float32(r)
		green[i] = float32(g)
		blue[i] = float32(b)
		nir[i] = float32(nr)
		ndvi[i] = float32(NDVI(nr, r))
		ndwi[i] = float32(NDWI(g, nr))
	}
}

// NDVI computes the Normalized Difference Vegetation Index (equation 1):
// (NIR - RED) / (NIR + RED). Zero denominators yield 0.
func NDVI(nir, red float64) float64 {
	den := nir + red
	if math.Abs(den) < 1e-9 {
		return 0
	}
	return (nir - red) / den
}

// NDWI computes the Normalized Difference Water Index (equation 2):
// (GREEN - NIR) / (GREEN + NIR). Zero denominators yield 0.
func NDWI(green, nir float64) float64 {
	den := green + nir
	if math.Abs(den) < 1e-9 {
		return 0
	}
	return (green - nir) / den
}
