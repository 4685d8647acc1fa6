package infer

import (
	"bytes"
	"math"
	"testing"

	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// closeTo asserts |got-want| <= tol*(1+|want|), i.e. agreement within tol
// in both absolute and relative terms.
func closeTo(t *testing.T, label string, got, want float32, tol float64) {
	t.Helper()
	diff := math.Abs(float64(got - want))
	if diff > tol*(1+math.Abs(float64(want))) {
		t.Fatalf("%s: got %v, want %v (diff %g > tol %g)", label, got, want, diff, tol)
	}
}

// TestBatchedRuntimeParity is the golden cross-stack check: for several
// stem configurations, a trained model exported through onnxsize and
// reloaded through the standalone runtime must reproduce the training
// stack's forward pass within 1e-4 — on the single-image path AND on the
// batched RunBatch path, which additionally must agree with the
// single-image path to float32 round-off.
func TestBatchedRuntimeParity(t *testing.T) {
	configs := []resnet.Config{
		// No stem pool, small 3x3 stem.
		{Channels: 5, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
			PoolChoice: 0, InitialOutputFeature: 8, NumClasses: 2},
		// Stock-style 7x7 stem with 3x3/2 pool, 7 channels.
		{Channels: 7, Batch: 4, KernelSize: 7, Stride: 2, Padding: 3,
			PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 8, NumClasses: 2},
		// Stride-1 stem with a 2x2 pool.
		{Channels: 5, Batch: 4, KernelSize: 3, Stride: 1, Padding: 2,
			PoolChoice: 1, KernelSizePool: 2, StridePool: 2, InitialOutputFeature: 8, NumClasses: 2},
	}
	for _, cfg := range configs {
		m, container := exportModel(t, cfg, 23)
		rt, err := LoadPlan(bytes.NewReader(container))
		if err != nil {
			t.Fatalf("cfg %s: %v", cfg.Key(), err)
		}

		// A mixed batch: rank-4 and rank-3 inputs, two spatial sizes, so
		// RunBatch exercises both accepted layouts and its size grouping.
		rng := tensor.NewRNG(91)
		inputs := []*tensor.Tensor{
			tensor.RandNormal(rng, 1, 1, cfg.Channels, 32, 32),
			tensor.RandNormal(rng, 1, cfg.Channels, 32, 32), // rank-3
			tensor.RandNormal(rng, 1, 1, cfg.Channels, 48, 48),
			tensor.RandNormal(rng, 1, 1, cfg.Channels, 32, 32),
			tensor.RandNormal(rng, 1, cfg.Channels, 48, 48), // rank-3
		}
		preds, err := rt.RunBatch(inputs)
		if err != nil {
			t.Fatalf("cfg %s: RunBatch: %v", cfg.Key(), err)
		}
		if len(preds) != len(inputs) {
			t.Fatalf("cfg %s: %d predictions for %d inputs", cfg.Key(), len(preds), len(inputs))
		}

		for i, in := range inputs {
			x4 := in
			if in.NDim() == 3 {
				x4 = tensor.FromSlice(in.Data(), 1, in.Dim(0), in.Dim(1), in.Dim(2))
			}
			// Golden reference: the training stack's eval-mode forward.
			want := m.Forward(x4, false)
			// Single-image runtime path.
			single, err := rt.Forward(x4)
			if err != nil {
				t.Fatalf("cfg %s input %d: %v", cfg.Key(), i, err)
			}
			nOut := want.Dim(1)
			for j := 0; j < nOut; j++ {
				wv := want.Data()[j]
				closeTo(t, cfg.Key()+": single vs training", single.Data()[j], wv, 1e-4)
				closeTo(t, cfg.Key()+": batched vs training", preds[i].Logits[j], wv, 1e-4)
				// Batched and single-image runtime paths run the same
				// kernels sample-independently; demand near round-off
				// agreement.
				closeTo(t, cfg.Key()+": batched vs single", preds[i].Logits[j], single.Data()[j], 1e-6)
			}
			wantClass := tensor.ArgMaxRows(want)[0]
			if preds[i].Class != wantClass {
				t.Fatalf("cfg %s input %d: batched class %d, training class %d",
					cfg.Key(), i, preds[i].Class, wantClass)
			}
		}
	}
}

// TestRunBatchMixedSizesBitwise interleaves five chips of one size with
// three of another, so RunBatch runs a batch of five and a batch of three,
// and demands each request's logits be the very bits a batch of one gives:
// the convolution driver decides nothing by batch size, so a request cannot
// tell what it was stacked with. Both precisions.
func TestRunBatchMixedSizesBitwise(t *testing.T) {
	cfg := resnet.Config{Channels: 5, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 8, NumClasses: 2}
	_, container := exportModel(t, cfg, 37)
	plan, err := LoadPlan(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	qplan, err := plan.QuantizeSynthetic(40)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(97)
	var inputs []*tensor.Tensor
	for _, side := range []int{40, 56, 40, 40, 56, 40, 56, 40} {
		inputs = append(inputs, tensor.RandNormal(rng, 1, 1, cfg.Channels, side, side))
	}
	for _, p := range []*Plan{plan, qplan} {
		preds, err := p.RunBatch(inputs)
		if err != nil {
			t.Fatalf("%s: RunBatch: %v", p.Precision(), err)
		}
		for i, in := range inputs {
			alone, err := p.RunBatch([]*tensor.Tensor{in})
			if err != nil {
				t.Fatalf("%s input %d: %v", p.Precision(), i, err)
			}
			for j, want := range alone[0].Logits {
				if got := preds[i].Logits[j]; math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s input %d logit %d: %v in the mixed batch, %v alone", p.Precision(), i, j, got, want)
				}
			}
			if preds[i].Class != alone[0].Class {
				t.Fatalf("%s input %d: class %d in the mixed batch, %d alone", p.Precision(), i, preds[i].Class, alone[0].Class)
			}
		}
	}
}

// TestRunBatchRejectsBadInputs pins the error contract of the batched
// entry point.
func TestRunBatchRejectsBadInputs(t *testing.T) {
	cfg := resnet.Config{Channels: 5, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 8, NumClasses: 2}
	_, container := exportModel(t, cfg, 13)
	rt, err := LoadPlan(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	ok := tensor.RandNormal(rng, 1, 5, 32, 32)

	if preds, err := rt.RunBatch(nil); err != nil || preds != nil {
		t.Fatalf("empty batch: preds %v err %v", preds, err)
	}
	if _, err := rt.RunBatch([]*tensor.Tensor{ok, nil}); err == nil {
		t.Fatal("nil input accepted")
	}
	// Wrong channel count.
	if _, err := rt.RunBatch([]*tensor.Tensor{tensor.RandNormal(rng, 1, 3, 32, 32)}); err == nil {
		t.Fatal("wrong channels accepted")
	}
	// Rank-4 with batch > 1.
	if _, err := rt.RunBatch([]*tensor.Tensor{tensor.RandNormal(rng, 1, 2, 5, 32, 32)}); err == nil {
		t.Fatal("multi-sample rank-4 input accepted")
	}
	// Rank-2.
	if _, err := rt.RunBatch([]*tensor.Tensor{tensor.RandNormal(rng, 1, 5, 32)}); err == nil {
		t.Fatal("rank-2 input accepted")
	}
}
