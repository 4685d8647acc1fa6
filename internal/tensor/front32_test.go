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
// precisions, the stock ResNet-18 in fp32 at 5×192×192 and in int8 at
// 5×100×100, and watches every scratch request the forward makes. None may scale with a whole
// sample's lowered columns or channels: the largest thing a convolution
// takes from the pools is one packed column block per worker, inside the
// block budget — where a materialised im2col of one stage-1 sample alone
// (288 taps × 625 pixels of float32) would be 720 KB, and a Winograd block
// of 512 channels uncut (16 points × 512 × 16 lanes of float32) 512 KiB.
// At 192² the stock model's 512-channel 3×3 convolutions run on 6×6 maps,
// so they take the Winograd path; at 100² their 4×4 maps keep them direct,
// where a single column panel of theirs (4,608 taps × 16 lanes, 288 KiB)
// is over the budget by itself. In int8 the same panel is 4,608 taps × 16
// lanes of one byte, 72 KiB, and the quad packer must keep its blocks
// inside the budget too.
func TestConvScratchBoundedByColumnBlock(t *testing.T) {
	cfg, plan, qplan := front32Plans(t)
	x := tensor.RandNormal(tensor.NewRNG(9), 1, 8, cfg.Channels, 100, 100)
	stock := stockPlan(t)
	xs := tensor.RandNormal(tensor.NewRNG(9), 1, 8, cfg.Channels, 192, 192)
	qstock, err := stock.QuantizeSynthetic(100)
	if err != nil {
		t.Fatal(err)
	}
	// The stock plans' first forwards pack their weights for good, from the
	// same pools; the forward watched is their second.
	if _, err := stock.NewSession().Forward(xs); err != nil {
		t.Fatal(err)
	}
	if _, err := qstock.NewSession().Forward(x); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p *infer.Plan
		x *tensor.Tensor
	}{{plan, x}, {qplan, x}, {stock, xs}, {qstock, x}} {
		p := c.p
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
		_, err := p.NewSession().Forward(c.x)
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

// stockPlan compiles the paper's stock ResNet-18 (64 channels wide) for five
// input channels with the weights of seed 7.
func stockPlan(t *testing.T) *infer.Plan {
	m, err := resnet.New(resnet.StockResNet18(5, 16), tensor.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := onnxsize.Export(m, &buf); err != nil {
		t.Fatal(err)
	}
	plan, err := infer.LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return plan
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
// workloads move. A deliberate change to the forward's arithmetic re-pins:
// the AVX2 value was re-pinned when the stride-1 3×3 convolutions moved onto
// the Winograd path, which runs under the AVX2 kernel only (the int8 half
// moves with it, through the activation scales its calibration observes);
// the scalar value is the one pinned at 0abf5d2.
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
	want := map[string]uint64{"avx2-6x16": 0x6f640369ca0b7e50, "scalar-4x4": 0xfe82e45352599d9b}
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

// TestStockInt8LogitsPinned holds the quantized stock ResNet-18 (weight seed
// 7, calibrated by QuantizeSynthetic(100)) to the bits of its logits at
// 5×100×100 in batches of one and eight. Its layers reach what front32's
// int8 pin does not: the 7×7 stride-2 stem, the 128- to 512-channel k-quads
// and the 4×4 maps, whose runs start and end within a panel's read of the
// batch's edges. The plan is compiled under the active fp32 kernel, which
// calibrates it, so the pin is keyed by that kernel's name as the front32
// one is; the int8 kernels are exact, so which of them runs does not move
// a bit.
func TestStockInt8LogitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned bits are amd64's: other ports may fuse multiply-adds in the Go kernels")
	}
	if tensor.RaceEnabled {
		t.Skip("bits, not races: the plain run pins them")
	}
	hash := func() uint64 {
		qplan, err := stockPlan(t).QuantizeSynthetic(100)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, batch := range []int{1, 8} {
			x := tensor.RandNormal(tensor.NewRNG(uint64(100+batch)), 1, batch, 5, 100, 100)
			logits, err := qplan.NewSession().Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range logits.Data() {
				b := math.Float32bits(v)
				h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
			}
		}
		return h.Sum64()
	}
	want := map[string]uint64{"avx2-6x16": 0x87477860c4637fe9, "scalar-4x4": 0xcd37bc05c48eddf4}
	check := func() {
		if got := hash(); got != want[tensor.GemmKernelName()] {
			t.Errorf("%s: stock int8 logits hash %#x, pinned %#x", tensor.GemmKernelName(), got, want[tensor.GemmKernelName()])
		}
	}
	check()
	if tensor.GemmKernelName() != "scalar-4x4" {
		defer tensor.ForceScalarKernel()()
		check()
	}
}
