package tensor

import (
	"testing"
	"testing/quick"
)

func seq4(n, c, h, w int) *Tensor {
	t := New(n, c, h, w)
	for i := range t.Data() {
		t.Data()[i] = float32(i)
	}
	return t
}

func TestFlipHKnown(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 1, 1, 2, 3)
	y := FlipH(x)
	want := []float32{3, 2, 1, 6, 5, 4}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("FlipH=%v", y.Data())
		}
	}
}

func TestFlipVKnown(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 1, 1, 2, 3)
	y := FlipV(x)
	want := []float32{4, 5, 6, 1, 2, 3}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("FlipV=%v", y.Data())
		}
	}
}

func TestRot90Known(t *testing.T) {
	// 2x2 plane [[1,2],[3,4]] rotated CCW once → [[2,4],[1,3]].
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	y := Rot90(x, 1)
	want := []float32{2, 4, 1, 3}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("Rot90(1)=%v want %v", y.Data(), want)
		}
	}
	// CW once (k=3) → [[3,1],[4,2]].
	z := Rot90(x, 3)
	wantZ := []float32{3, 1, 4, 2}
	for i, v := range z.Data() {
		if v != wantZ[i] {
			t.Fatalf("Rot90(3)=%v want %v", z.Data(), wantZ)
		}
	}
}

func TestFlipInvolutions(t *testing.T) {
	// Property: flips are involutions; Rot90 four times is identity.
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		x := RandNormal(rng, 1, 2, 3, 5, 5)
		checks := []*Tensor{
			FlipH(FlipH(x)),
			FlipV(FlipV(x)),
			Rot90(Rot90(Rot90(Rot90(x, 1), 1), 1), 1),
			Rot90(Rot90(x, 1), 3),
			Rot90(x, 4),
			Rot90(x, 0),
		}
		for _, y := range checks {
			for i := range x.Data() {
				if x.Data()[i] != y.Data()[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRot90EqualsFlipComposition(t *testing.T) {
	rng := NewRNG(3)
	x := RandNormal(rng, 1, 1, 2, 4, 4)
	// k=2 equals FlipH∘FlipV.
	a := Rot90(x, 2)
	b := FlipH(FlipV(x))
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("Rot90(2) != FlipH(FlipV)")
		}
	}
}

func TestRot90RejectsNonSquareOdd(t *testing.T) {
	x := seq4(1, 1, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd rotation of non-square plane")
		}
	}()
	Rot90(x, 1)
}

func TestRot90NonSquareEvenOK(t *testing.T) {
	x := seq4(1, 1, 2, 3)
	y := Rot90(x, 2)
	want := []float32{5, 4, 3, 2, 1, 0}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("Rot90(2) non-square=%v", y.Data())
		}
	}
}

func TestAddNoiseInPlace(t *testing.T) {
	x := New(1, 1, 10, 10)
	AddNoiseInPlace(x, NewRNG(1), 0.5)
	nonzero := 0
	for _, v := range x.Data() {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 90 {
		t.Fatalf("noise barely applied: %d nonzero", nonzero)
	}
}

func TestTransformsPreserveBatchChannelStructure(t *testing.T) {
	// A transform must act per-plane: plane p of the output must be a
	// permutation of plane p of the input.
	rng := NewRNG(9)
	x := RandNormal(rng, 1, 3, 2, 4, 4)
	for name, y := range map[string]*Tensor{
		"FlipH": FlipH(x), "FlipV": FlipV(x), "Rot90": Rot90(x, 1),
	} {
		for p := 0; p < 6; p++ {
			var sx, sy float64
			for i := 0; i < 16; i++ {
				sx += float64(x.Data()[p*16+i])
				sy += float64(y.Data()[p*16+i])
			}
			if diff := sx - sy; diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("%s mixed planes: plane %d sums %v vs %v", name, p, sx, sy)
			}
		}
	}
}
