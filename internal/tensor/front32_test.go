package tensor_test

import (
	"bytes"
	"hash/fnv"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"drainnas/internal/infer"
	"drainnas/internal/onnxsize"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// TestConvScratchBoundedByColumnBlock runs the deployed model shape (front32,
// the paper's Table 4 front) at 5×100×100 in a batch of eight, both
// precisions, and watches every scratch request the forward makes. None may
// scale with a whole sample's lowered columns: the largest thing a
// convolution takes from the pools is one packed column block per worker,
// inside the block budget — where a materialised im2col of one stage-1
// sample alone (288 taps × 625 pixels of float32) would be 720 KB.
func TestConvScratchBoundedByColumnBlock(t *testing.T) {
	cfg, plan, qplan := front32Plans(t)
	x := tensor.RandNormal(tensor.NewRNG(9), 1, 8, cfg.Channels, 100, 100)
	for _, p := range []*infer.Plan{plan, qplan} {
		var largest, requests atomic.Int64
		restore := tensor.ObserveScratch(func(n int) {
			requests.Add(1)
			for {
				cur := largest.Load()
				if int64(n) <= cur || largest.CompareAndSwap(cur, int64(n)) {
					return
				}
			}
		})
		_, err := p.NewSession().Forward(x)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if requests.Load() == 0 {
			t.Fatalf("%s: the forward made no scratch request; the observer is not wired", p.Precision())
		}
		if got := largest.Load(); got > tensor.ConvBlockBytes {
			t.Fatalf("%s: largest scratch request %d bytes, over the %d-byte column block budget", p.Precision(), got, tensor.ConvBlockBytes)
		}
	}
}

// front32Plans builds the deployed model shape with the weights of seed 7 and
// compiles it at both precisions.
func front32Plans(t *testing.T) (cfg resnet.Config, fp32, int8 *infer.Plan) {
	cfg = resnet.Config{
		Channels: 5, Batch: 16, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2,
		InitialOutputFeature: 32, NumClasses: 2,
	}
	m, err := resnet.New(cfg, tensor.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := onnxsize.Export(m, &buf); err != nil {
		t.Fatal(err)
	}
	if fp32, err = infer.LoadPlan(&buf); err != nil {
		t.Fatal(err)
	}
	if int8, err = fp32.QuantizeSynthetic(100); err != nil {
		t.Fatal(err)
	}
	return cfg, fp32, int8
}

// TestCompiledPlanLogitsPinned holds the forward to the bits it produced
// before the backward pass moved onto the panel driver (commit 0abf5d2): the
// hash of front32's logits, fp32 and int8, at 32² and 100² chips in batches
// of one and eight, under the AVX2 kernel and under the scalar one. The
// backward shares convCall, the packers and the grid planner with the
// forward; whatever it changes there must leave these alone, or the serving
// workloads move. A deliberate change to the forward's arithmetic re-pins.
func TestCompiledPlanLogitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned bits are amd64's: other ports may fuse multiply-adds in the Go kernels")
	}
	if tensor.RaceEnabled {
		t.Skip("bits, not races: the plain run pins them")
	}
	// The plans are built inside: a plan packs its weights for the kernel
	// that is active when it first runs.
	hash := func() uint64 {
		cfg, fp32, int8 := front32Plans(t)
		h := fnv.New64a()
		for _, p := range []*infer.Plan{fp32, int8} {
			for _, side := range []int{32, 100} {
				for _, batch := range []int{1, 8} {
					x := tensor.RandNormal(tensor.NewRNG(uint64(side+batch)), 1, batch, cfg.Channels, side, side)
					logits, err := p.NewSession().Forward(x)
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range logits.Data() {
						b := math.Float32bits(v)
						h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
					}
				}
			}
		}
		return h.Sum64()
	}
	want := map[string]uint64{"avx2-6x16": 0x1ebf2e12ba25d1ed, "scalar-4x4": 0xfe82e45352599d9b}
	check := func() {
		if got := hash(); got != want[tensor.GemmKernelName()] {
			t.Errorf("%s: logits hash %#x, pinned %#x", tensor.GemmKernelName(), got, want[tensor.GemmKernelName()])
		}
	}
	check()
	if tensor.GemmKernelName() != "scalar-4x4" {
		defer tensor.ForceScalarKernel()()
		check()
	}
}
