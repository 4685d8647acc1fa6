package tensor_test

import (
	"bytes"
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
	cfg := resnet.Config{
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
	plan, err := infer.LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	qplan, err := plan.QuantizeSynthetic(100)
	if err != nil {
		t.Fatal(err)
	}
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
