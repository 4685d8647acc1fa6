package tensor

import (
	"math"
	"sync"
	"testing"

	"drainnas/internal/parallel"
)

// convCase is a forward/backward shape the kernel suite runs. The set
// covers strided, padded, pointwise (stride 1 and 2) and odd spatial sizes.
type convCase struct {
	n, c, h, w  int
	oc, kh, kw  int
	stride, pad int
	bias        bool
	name        string
}

var convCases = []convCase{
	{1, 3, 17, 17, 8, 3, 3, 1, 1, true, "batch1-3x3"},
	{1, 16, 32, 32, 32, 3, 3, 1, 1, false, "batch1-wide"},
	{2, 5, 13, 9, 7, 5, 5, 2, 2, true, "stride2-5x5"},
	{3, 8, 16, 16, 16, 1, 1, 1, 0, false, "pointwise-s1"},
	{1, 8, 15, 15, 12, 1, 1, 2, 0, true, "pointwise-s2"},
	{4, 2, 7, 7, 3, 3, 3, 3, 0, false, "stride3-nopad"},
	{1, 4, 5, 31, 6, 3, 3, 1, 1, true, "short-wide"},
}

// forwardOracle computes Conv2D with a single worker: the whole column-panel
// grid run in order on the calling goroutine.
func forwardOracle(tc convCase, input, weight, bias *Tensor) *Tensor {
	prev := parallel.DefaultWorkers
	parallel.DefaultWorkers = 1
	defer func() { parallel.DefaultWorkers = prev }()
	return Conv2D(input, weight, bias, tc.stride, tc.pad)
}

func makeConvInputs(tc convCase, seed uint64) (input, weight, bias *Tensor) {
	rng := NewRNG(seed)
	input = RandNormal(rng, 1, tc.n, tc.c, tc.h, tc.w)
	weight = RandNormal(rng, 0.3, tc.oc, tc.c, tc.kh, tc.kw)
	if tc.bias {
		bias = RandNormal(rng, 0.5, tc.oc)
	}
	return
}

// TestConv2DIntraSampleParity forces more workers than samples, so the grid
// is cut into many column blocks (and, for the small layers, row groups),
// and checks the result against the sequential one. The match must be
// bitwise under both kernels: whether a layer is tiled is decided by its
// shape, never by how the grid was cut, and a tiled output element sees the
// same multiply-adds in the same order wherever its column lands.
func TestConv2DIntraSampleParity(t *testing.T) {
	run := func(t *testing.T) {
		for _, workers := range []int{2, 3, 5, 16} {
			for _, tc := range convCases {
				input, weight, bias := makeConvInputs(tc, 23)
				want := forwardOracle(tc, input, weight, bias)
				prev := parallel.DefaultWorkers
				parallel.DefaultWorkers = workers
				got := Conv2D(input, weight, bias, tc.stride, tc.pad)
				parallel.DefaultWorkers = prev
				if !got.SameShape(want) {
					t.Fatalf("%s w=%d: shape %v vs %v", tc.name, workers, got.Shape(), want.Shape())
				}
				for i := range want.data {
					if math.Float32bits(got.data[i]) != math.Float32bits(want.data[i]) {
						t.Fatalf("%s w=%d kernel=%s: out[%d] = %v, sequential %v", tc.name, workers, gemmKernelName, i, got.data[i], want.data[i])
					}
				}
			}
		}
	}
	t.Run("active-kernel", run)
	t.Run("scalar-kernel", func(t *testing.T) {
		restore := forceScalarKernel()
		defer restore()
		run(t)
	})
}

// TestConv2DIntraSampleRace runs batch-1 convolutions concurrently with
// forced multi-worker grids; `go test -race ./internal/tensor` turns this
// into the data-race check for the intra-sample path (worker fan-out happens
// regardless of the host's core count). The wide layer fans out over column
// blocks, the deep one (a single panel of columns) over row-tile groups.
func TestConv2DIntraSampleRace(t *testing.T) {
	prev := parallel.DefaultWorkers
	parallel.DefaultWorkers = 8
	defer func() { parallel.DefaultWorkers = prev }()
	for _, tc := range []convCase{
		convCases[1], // batch1-wide: 64 panels, cut into column blocks
		{1, 64, 4, 4, 64, 3, 3, 1, 1, true, "batch1-deep"},
	} {
		input, weight, bias := makeConvInputs(tc, 31)
		want := Conv2D(input, weight, bias, tc.stride, tc.pad)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					got := Conv2D(input, weight, bias, tc.stride, tc.pad)
					for j := range want.data {
						if got.data[j] != want.data[j] {
							t.Errorf("%s: concurrent conv diverged at %d", tc.name, j)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestConv2DBackwardPooledParity compares pooled-buffer backward against
// fresh-allocation backward. The pool is poisoned with NaN-filled buffers
// first, so any element the pooled path fails to overwrite or zero shows up
// as a NaN diff, not a silent match on stale zeros.
func TestConv2DBackwardPooledParity(t *testing.T) {
	for _, tc := range convCases {
		input, weight, _ := makeConvInputs(tc, 41)
		ohh := ConvOut(tc.h, tc.kh, tc.stride, tc.pad)
		oww := ConvOut(tc.w, tc.kw, tc.stride, tc.pad)
		rng := NewRNG(43)
		gradOut := RandNormal(rng, 1, tc.n, tc.oc, ohh, oww)

		run := func() (gin, gw, gb *Tensor) {
			gw = New(tc.oc, tc.c, tc.kh, tc.kw)
			gb = New(tc.oc)
			gin = Conv2DBackward(input, weight, gradOut, gw, gb, tc.stride, tc.pad)
			return
		}

		restore := disableScratchPool()
		wantIn, wantW, wantB := run()
		restore()

		poisonScratchPool()
		gotIn, gotW, gotB := run()

		for name, pair := range map[string][2]*Tensor{
			"gradIn": {gotIn, wantIn}, "gradW": {gotW, wantW}, "gradB": {gotB, wantB},
		} {
			got, want := pair[0], pair[1]
			for i := range want.data {
				if got.data[i] != want.data[i] {
					t.Fatalf("%s: pooled %s[%d] = %g, fresh = %g", tc.name, name, i, got.data[i], want.data[i])
				}
			}
		}
	}
}

// TestConv2DBackwardConcurrent exercises the pooled backward path under
// concurrent training steps (the NAS runner trains multiple trials at
// once); with -race this checks the pool handoff.
func TestConv2DBackwardConcurrent(t *testing.T) {
	prev := parallel.DefaultWorkers
	parallel.DefaultWorkers = 4
	defer func() { parallel.DefaultWorkers = prev }()
	tc := convCases[0]
	input, weight, _ := makeConvInputs(tc, 53)
	ohh := ConvOut(tc.h, tc.kh, tc.stride, tc.pad)
	oww := ConvOut(tc.w, tc.kw, tc.stride, tc.pad)
	rng := NewRNG(59)
	gradOut := RandNormal(rng, 1, tc.n, tc.oc, ohh, oww)
	gwWant := New(tc.oc, tc.c, tc.kh, tc.kw)
	wantIn := Conv2DBackward(input, weight, gradOut, gwWant, nil, tc.stride, tc.pad)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				gw := New(tc.oc, tc.c, tc.kh, tc.kw)
				gin := Conv2DBackward(input, weight, gradOut, gw, nil, tc.stride, tc.pad)
				for j := range wantIn.data {
					if gin.data[j] != wantIn.data[j] {
						t.Errorf("concurrent backward diverged at %d", j)
						return
					}
				}
				for j := range gwWant.data {
					if gw.data[j] != gwWant.data[j] {
						t.Errorf("concurrent gradW diverged at %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
