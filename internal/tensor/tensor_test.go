package tensor

import (
	"math"
	"testing"
)

func TestNewAndShape(t *testing.T) {
	a := New(2, 3, 4)
	if a.Numel() != 24 || a.NDim() != 3 || a.Dim(1) != 3 {
		t.Fatalf("unexpected tensor geometry: %v", a.Shape())
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestScalarTensor(t *testing.T) {
	s := New()
	if s.Numel() != 1 || s.NDim() != 0 {
		t.Fatalf("scalar tensor: numel=%d ndim=%d", s.Numel(), s.NDim())
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4)
	a.Set(7.5, 2, 1)
	if a.At(2, 1) != 7.5 {
		t.Fatal("At/Set round trip failed")
	}
	if a.Data()[2*4+1] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(99, 0, 0)
	if a.At(0, 0) != 99 {
		t.Fatal("Reshape must share backing data")
	}
	c := a.Reshape(-1, 2)
	if c.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d, want 3", c.Dim(0))
	}
}

func TestReshapePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	sum := New(2, 2)
	AddInto(sum, a, b)
	if got := sum.Data(); got[3] != 44 {
		t.Fatalf("AddInto: %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 9 {
		t.Fatalf("Sub: %v", got)
	}
	if got := Scale(a, 2).Data(); got[1] != 4 {
		t.Fatalf("Scale: %v", got)
	}
	AxpyInPlace(a, 0.5, b)
	if a.Data()[0] != 6 {
		t.Fatalf("Axpy: %v", a.Data())
	}
}

func TestReLUAndBackward(t *testing.T) {
	x := FromSlice([]float32{-1, 0, 2, -3}, 4)
	y := New(4)
	ReLUInto(y, x)
	want := []float32{0, 0, 2, 0}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("ReLUInto: %v", y.Data())
		}
	}
	g := FromSlice([]float32{1, 1, 1, 1}, 4)
	gx := ReLUBackward(g, x)
	wantG := []float32{0, 0, 1, 0}
	for i, v := range gx.Data() {
		if v != wantG[i] {
			t.Fatalf("ReLUBackward: %v", gx.Data())
		}
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{1, -2, 3, 4}, 2, 2)
	if a.Sum() != 6 {
		t.Fatalf("Sum=%v", a.Sum())
	}
	if a.Mean() != 1.5 {
		t.Fatalf("Mean=%v", a.Mean())
	}
	if a.Max() != 4 || a.Min() != -2 {
		t.Fatalf("Max/Min=%v/%v", a.Max(), a.Min())
	}
	if math.Abs(a.Norm2()-math.Sqrt(1+4+9+16)) > 1e-9 {
		t.Fatalf("Norm2=%v", a.Norm2())
	}
}

func TestArgMaxRows(t *testing.T) {
	m := FromSlice([]float32{0.1, 0.9, 0.5, 0.2, 3, 3}, 3, 2)
	got := ArgMaxRows(m)
	// Ties resolve to the first (lowest index) maximum.
	want := []int{1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgMaxRows=%v want %v", got, want)
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	s := SoftmaxRows(m)
	for r := 0; r < 2; r++ {
		sum := 0.0
		for c := 0; c < 3; c++ {
			v := float64(s.At(r, c))
			if math.IsNaN(v) || v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d softmax sums to %v", r, sum)
		}
	}
	// The large-value row must be handled stably (uniform 1/3 each).
	if math.Abs(float64(s.At(1, 0))-1.0/3) > 1e-5 {
		t.Fatalf("unstable softmax: %v", s.At(1, 0))
	}
}

func TestHasNaN(t *testing.T) {
	a := New(2, 2)
	if a.HasNaN() {
		t.Fatal("zero tensor reported NaN")
	}
	a.Set(float32(math.NaN()), 0, 1)
	if !a.HasNaN() {
		t.Fatal("NaN not detected")
	}
	b := New(1)
	b.Set(float32(math.Inf(1)), 0)
	if !b.HasNaN() {
		t.Fatal("Inf not detected")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := a.Clone()
	b.Set(9, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone must not share data")
	}
}
