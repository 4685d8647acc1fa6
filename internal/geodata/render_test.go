package geodata

import (
	"math"
	"testing"

	"drainnas/internal/parallel"
	"drainnas/internal/tensor"
)

// renderBandsOneConsumer is RenderBands as it was before the bands were
// shaded on every core: the same producer, with the caller's goroutine as
// the only consumer, shading cells in order. It is the oracle for the
// parallel consumers' bytes and for rng's final state.
func renderBandsOneConsumer(t *Terrain, region Region, rng *tensor.RNG) []float32 {
	size := t.Size
	bands := make([]float32, NumBands*size*size)
	lo, hi := t.ElevRange()
	span := hi - lo
	if span < 1e-9 {
		span = 1
	}
	moistSeed, vegSeed := rng.Uint64(), rng.Uint64()
	free := make(chan []float64, renderBuffers)
	full := make(chan []float64, renderBuffers)
	for k := 0; k < renderBuffers; k++ {
		free <- make([]float64, 4*renderRows*size)
	}
	go func() {
		for y := 0; y < size; y += renderRows {
			dev := (<-free)[:4*min(renderRows, size-y)*size]
			rng.NormFloat64s(dev)
			full <- dev
		}
		close(full)
	}()
	shade := shader(t, region, bands, lo, span, moistSeed, vegSeed)
	i := 0
	for dev := range full {
		for k := 0; k < len(dev); k += 4 {
			shade(i, dev[k:k+4])
			i++
		}
		free <- dev
	}
	return bands
}

// TestRenderBandsMatchesOneConsumer holds RenderBands to the one-consumer
// render bit for bit, and rng to the state that render leaves, at sizes on
// both sides of the renderRows band edges and at the scan's 640², with one
// consumer and with more consumers than there are cores or bands.
func TestRenderBandsMatchesOneConsumer(t *testing.T) {
	prev := parallel.DefaultWorkers
	defer func() { parallel.DefaultWorkers = prev }()
	for _, size := range []int{1, 15, 16, 17, 33, 137, 640} {
		region := StudyRegions[size%len(StudyRegions)]
		terrain := BuildScene(region, SceneCrossing, size, tensor.NewRNG(uint64(size)))
		wantRNG := tensor.NewRNG(uint64(size) * 7)
		want := renderBandsOneConsumer(terrain, region, wantRNG)
		for _, workers := range []int{1, 2, 3, 8} {
			parallel.DefaultWorkers = workers
			rng := tensor.NewRNG(uint64(size) * 7)
			got := RenderBands(terrain, region, rng)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("size %d, %d workers: band value %d = %v, one consumer %v", size, workers, i, got[i], want[i])
				}
			}
			if *rng != *wantRNG {
				t.Fatalf("size %d, %d workers: rng ends in %+v, one consumer leaves %+v", size, workers, *rng, *wantRNG)
			}
		}
	}
}
