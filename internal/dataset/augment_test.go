package dataset

import (
	"testing"

	"drainnas/internal/tensor"
)

func TestAugmentDisabledIsIdentity(t *testing.T) {
	rng := tensor.NewRNG(1)
	x := tensor.RandNormal(rng, 1, 2, 3, 4, 4)
	orig := x.Clone()
	out := AugmentOptions{}.Apply(x, tensor.NewRNG(2))
	if out != x {
		t.Fatal("disabled augmentation must return the input unchanged")
	}
	for i := range orig.Data() {
		if x.Data()[i] != orig.Data()[i] {
			t.Fatal("disabled augmentation mutated data")
		}
	}
}

func TestAugmentPreservesShapeAndEnergy(t *testing.T) {
	rng := tensor.NewRNG(3)
	x := tensor.RandNormal(rng, 1, 4, 3, 8, 8)
	sumBefore := x.Sum()
	opts := AugmentOptions{FlipH: true, FlipV: true, Rot90: true} // no noise
	out := opts.Apply(x, tensor.NewRNG(7))
	if !out.SameShape(x) {
		t.Fatalf("shape changed: %v", out.Shape())
	}
	// Pure geometric transforms permute values: the sum is conserved.
	if diff := out.Sum() - sumBefore; diff > 1e-3 || diff < -1e-3 {
		t.Fatalf("augmentation changed mass by %v", diff)
	}
}

func TestAugmentNoiseChangesValues(t *testing.T) {
	rng := tensor.NewRNG(4)
	x := tensor.RandNormal(rng, 1, 2, 1, 4, 4)
	orig := x.Clone()
	AugmentOptions{NoiseStd: 0.1}.Apply(x, tensor.NewRNG(5))
	same := 0
	for i := range x.Data() {
		if x.Data()[i] == orig.Data()[i] {
			same++
		}
	}
	if same == x.Numel() {
		t.Fatal("noise augmentation had no effect")
	}
}

func TestAugmentDeterministicPerSeed(t *testing.T) {
	mk := func() *tensor.Tensor {
		return tensor.RandNormal(tensor.NewRNG(6), 1, 2, 2, 6, 6)
	}
	opts := AugmentOptions{FlipH: true, FlipV: true, Rot90: true, NoiseStd: 0.01}
	a := opts.Apply(mk(), tensor.NewRNG(9))
	b := opts.Apply(mk(), tensor.NewRNG(9))
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("augmentation not deterministic for a fixed seed")
		}
	}
}

func TestAugmentRectangularSkipsRotation(t *testing.T) {
	rng := tensor.NewRNG(8)
	x := tensor.RandNormal(rng, 1, 1, 1, 4, 6) // non-square
	// Must not panic even with Rot90 enabled.
	out := AugmentOptions{Rot90: true}.Apply(x, tensor.NewRNG(3))
	if !out.SameShape(x) {
		t.Fatal("shape changed on rectangular input")
	}
}
