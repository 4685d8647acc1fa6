package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"drainnas/internal/parallel"
)

// naiveConv2D is a direct reference implementation used to validate the
// im2col path.
func naiveConv2D(input, weight, bias *Tensor, stride, pad int) *Tensor {
	n, c, h, w := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	oc, _, kh, kw := weight.Dim(0), weight.Dim(1), weight.Dim(2), weight.Dim(3)
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	out := New(n, oc, oh, ow)
	for s := 0; s < n; s++ {
		for o := 0; o < oc; o++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := float32(0)
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < kh; ky++ {
							sy := oy*stride - pad + ky
							if sy < 0 || sy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								sx := ox*stride - pad + kx
								if sx < 0 || sx >= w {
									continue
								}
								sum += input.At(s, ch, sy, sx) * weight.At(o, ch, ky, kx)
							}
						}
					}
					if bias != nil {
						sum += bias.At(o)
					}
					out.Set(sum, s, o, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConvOut(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{64, 3, 1, 1, 64},
		{64, 3, 2, 1, 32},
		{64, 7, 2, 3, 32},
		{5, 3, 1, 0, 3},
		{5, 5, 1, 0, 1},
	}
	for _, c := range cases {
		if got := ConvOut(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOut(%d,%d,%d,%d)=%d want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestConv2DMatchesNaive(t *testing.T) {
	r := NewRNG(3)
	cases := []struct{ n, c, h, w, oc, k, s, p int }{
		{1, 1, 5, 5, 1, 3, 1, 1},
		{2, 3, 8, 8, 4, 3, 2, 1},
		{3, 2, 9, 7, 5, 3, 1, 0},
		{1, 5, 16, 16, 8, 7, 2, 3},
		{2, 4, 6, 6, 3, 2, 2, 0},
		{2, 3, 8, 8, 6, 1, 1, 0}, // pointwise, stride 1
		{3, 4, 7, 7, 5, 1, 2, 0}, // pointwise, stride 2
		{1, 2, 5, 6, 3, 1, 2, 0}, // pointwise, rectangular, stride 2
	}
	for _, cs := range cases {
		in := RandNormal(r, 1, cs.n, cs.c, cs.h, cs.w)
		wt := RandNormal(r, 0.5, cs.oc, cs.c, cs.k, cs.k)
		b := RandNormal(r, 0.1, cs.oc)
		got := Conv2D(in, wt, b, cs.s, cs.p)
		want := naiveConv2D(in, wt, b, cs.s, cs.p)
		if !got.SameShape(want) {
			t.Fatalf("shape %v want %v", got.Shape(), want.Shape())
		}
		for i := range got.Data() {
			if d := math.Abs(float64(got.Data()[i] - want.Data()[i])); d > 1e-3 {
				t.Fatalf("case %+v elem %d: got %v want %v", cs, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

func TestConv2DNilBias(t *testing.T) {
	r := NewRNG(4)
	in := RandNormal(r, 1, 1, 2, 4, 4)
	wt := RandNormal(r, 1, 3, 2, 3, 3)
	got := Conv2D(in, wt, nil, 1, 1)
	want := naiveConv2D(in, wt, nil, 1, 1)
	for i := range got.Data() {
		if d := math.Abs(float64(got.Data()[i] - want.Data()[i])); d > 1e-4 {
			t.Fatalf("elem %d: got %v want %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// Property: Col2Im is the adjoint of Im2Col, i.e. <Im2Col(x), y> ==
	// <x, Col2Im(y)> for all x, y. This is the defining property the
	// backward pass relies on.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		c, h, w, k, s, p := 2, 6, 5, 3, 2, 1
		oh, ow := ConvOut(h, k, s, p), ConvOut(w, k, s, p)
		x := RandNormal(r, 1, c, h, w)
		y := RandNormal(r, 1, c*k*k, oh*ow)
		colX := make([]float32, c*k*k*oh*ow)
		Im2Col(x.Data(), c, h, w, k, k, s, p, colX)
		lhs := 0.0
		for i := range colX {
			lhs += float64(colX[i]) * float64(y.Data()[i])
		}
		back := make([]float32, c*h*w)
		Col2Im(y.Data(), c, h, w, k, k, s, p, back)
		rhs := 0.0
		for i := range back {
			rhs += float64(back[i]) * float64(x.Data()[i])
		}
		return math.Abs(lhs-rhs) < 1e-2*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// numericalGrad computes d(sum(conv output * probe))/d(input[i]) by central
// differences.
func numericalGradConvInput(in, wt, probe *Tensor, stride, pad int, idx int) float64 {
	const eps = 1e-2
	orig := in.Data()[idx]
	in.Data()[idx] = orig + eps
	up := dot(Conv2D(in, wt, nil, stride, pad), probe)
	in.Data()[idx] = orig - eps
	down := dot(Conv2D(in, wt, nil, stride, pad), probe)
	in.Data()[idx] = orig
	return (up - down) / (2 * eps)
}

func dot(a, b *Tensor) float64 {
	s := 0.0
	for i := range a.Data() {
		s += float64(a.Data()[i]) * float64(b.Data()[i])
	}
	return s
}

func TestConv2DBackwardNumericalGradient(t *testing.T) {
	r := NewRNG(11)
	n, c, h, w, oc, k, s, p := 2, 3, 6, 6, 4, 3, 2, 1
	in := RandNormal(r, 1, n, c, h, w)
	wt := RandNormal(r, 0.5, oc, c, k, k)
	out := Conv2D(in, wt, nil, s, p)
	probe := RandNormal(r, 1, out.Shape()...)
	gradW := New(oc, c, k, k)
	gradB := New(oc)
	gradIn := Conv2DBackward(in, wt, probe, gradW, gradB, s, p)

	// Spot-check several input gradient entries against finite differences.
	for _, idx := range []int{0, 17, 55, 100, n*c*h*w - 1} {
		want := numericalGradConvInput(in, wt, probe, s, p, idx)
		got := float64(gradIn.Data()[idx])
		if math.Abs(got-want) > 2e-2*(1+math.Abs(want)) {
			t.Fatalf("gradIn[%d]: got %v want %v", idx, got, want)
		}
	}
	// And weight gradients.
	for _, idx := range []int{0, 13, oc*c*k*k - 1} {
		const eps = 1e-2
		orig := wt.Data()[idx]
		wt.Data()[idx] = orig + eps
		up := dot(Conv2D(in, wt, nil, s, p), probe)
		wt.Data()[idx] = orig - eps
		down := dot(Conv2D(in, wt, nil, s, p), probe)
		wt.Data()[idx] = orig
		want := (up - down) / (2 * eps)
		got := float64(gradW.Data()[idx])
		if math.Abs(got-want) > 2e-2*(1+math.Abs(want)) {
			t.Fatalf("gradW[%d]: got %v want %v", idx, got, want)
		}
	}
	// Bias gradient equals the sum of gradOut over each output channel.
	for o := 0; o < oc; o++ {
		want := 0.0
		oh, ow := out.Dim(2), out.Dim(3)
		for s2 := 0; s2 < n; s2++ {
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					want += float64(probe.At(s2, o, y, x))
				}
			}
		}
		if math.Abs(float64(gradB.At(o))-want) > 1e-2*(1+math.Abs(want)) {
			t.Fatalf("gradB[%d]: got %v want %v", o, gradB.At(o), want)
		}
	}
}

func TestConv2DBackwardAccumulates(t *testing.T) {
	r := NewRNG(5)
	in := RandNormal(r, 1, 1, 2, 4, 4)
	wt := RandNormal(r, 1, 2, 2, 3, 3)
	gout := RandNormal(r, 1, 1, 2, 4, 4)
	g1 := New(2, 2, 3, 3)
	Conv2DBackward(in, wt, gout, g1, nil, 1, 1)
	g2 := g1.Clone()
	Conv2DBackward(in, wt, gout, g2, nil, 1, 1)
	for i := range g2.Data() {
		if math.Abs(float64(g2.Data()[i]-2*g1.Data()[i])) > 1e-3 {
			t.Fatal("gradW must accumulate across calls")
		}
	}
}

// TestWorkerSlot holds the weight gradient's reduction split to the layer
// alone (the name is the pinned one of the per-worker slots it replaced):
// the batch's pixels are cut into blocks whose length follows from the
// output channels, whatever the worker count, and every gradW element adds
// the blocks in order.
func TestWorkerSlot(t *testing.T) {
	prev := parallel.DefaultWorkers
	defer func() { parallel.DefaultWorkers = prev }()
	for _, rows := range []int{4, 6, 36, 64, 132, 258, 516, 2052} {
		parallel.DefaultWorkers = 1
		kc := gradWBlock(rows)
		if kc < 1 || kc > gemmKC {
			t.Fatalf("gradWBlock(%d) = %d, outside [1, %d]", rows, kc, gemmKC)
		}
		if kc < gemmKC && 4*2*kc*rows <= convBlockBytes {
			t.Fatalf("gradWBlock(%d) = %d, but a block twice as long fits the budget", rows, kc)
		}
		if kc > 1 && 4*kc*rows > convBlockBytes {
			t.Fatalf("gradWBlock(%d) = %d: %d bytes of packed gradOut, over the %d-byte budget", rows, kc, 4*kc*rows, convBlockBytes)
		}
		for _, workers := range []int{2, 4, 7} {
			parallel.DefaultWorkers = workers
			if got := gradWBlock(rows); got != kc {
				t.Fatalf("gradWBlock(%d) = %d under %d workers, %d under one", rows, got, workers, kc)
			}
		}
	}
}

func TestConv2DLinearInWeights(t *testing.T) {
	// Property: conv(x, aW1 + bW2) == a·conv(x, W1) + b·conv(x, W2).
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		x := RandNormal(r, 1, 1, 2, 6, 6)
		w1 := RandNormal(r, 1, 3, 2, 3, 3)
		w2 := RandNormal(r, 1, 3, 2, 3, 3)
		a, b := float32(r.Uniform(-2, 2)), float32(r.Uniform(-2, 2))
		combined := AxpyInPlace(Scale(w1, a), b, w2)
		lhs := Conv2D(x, combined, nil, 1, 1)
		rhs := AxpyInPlace(Scale(Conv2D(x, w1, nil, 1, 1), a), b, Conv2D(x, w2, nil, 1, 1))
		for i := range lhs.Data() {
			if d := lhs.Data()[i] - rhs.Data()[i]; d > 1e-3 || d < -1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConv2DTranslationEquivariance(t *testing.T) {
	// Property: shifting the input one pixel right shifts the stride-1
	// convolution output one pixel right (interior pixels).
	r := NewRNG(42)
	x := RandNormal(r, 1, 1, 1, 8, 8)
	shifted := New(1, 1, 8, 8)
	for y := 0; y < 8; y++ {
		for sx := 1; sx < 8; sx++ {
			shifted.Set(x.At(0, 0, y, sx-1), 0, 0, y, sx)
		}
	}
	w := RandNormal(r, 1, 1, 1, 3, 3)
	outA := Conv2D(x, w, nil, 1, 1)
	outB := Conv2D(shifted, w, nil, 1, 1)
	for y := 1; y < 7; y++ {
		for sx := 2; sx < 7; sx++ {
			d := outB.At(0, 0, y, sx) - outA.At(0, 0, y, sx-1)
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("equivariance broken at (%d,%d): %v", y, sx, d)
			}
		}
	}
}
