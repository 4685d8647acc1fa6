package tensor

import (
	"math"
	"sync"
	"testing"
)

func maxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestPackedConvMatchesConv2D pins the persistent-pack path to the per-call
// Conv2D path over the kernel/stride/pad shapes the search space produces,
// with and without bias.
func TestPackedConvMatchesConv2D(t *testing.T) {
	r := NewRNG(11)
	cases := []struct {
		n, c, h, w, oc, k, stride, pad int
		bias                           bool
	}{
		{2, 3, 16, 16, 8, 3, 1, 1, true},
		{1, 5, 17, 13, 6, 3, 2, 1, false},
		{3, 4, 12, 12, 7, 7, 2, 3, true},
		{2, 8, 9, 9, 8, 1, 1, 0, true},   // pointwise stride 1 (in-place columns)
		{2, 8, 10, 10, 8, 1, 2, 0, true}, // pointwise strided
		{1, 2, 8, 8, 4, 3, 1, 0, false},  // pad 0
	}
	for _, tc := range cases {
		x := RandUniform(r, -1, 1, tc.n, tc.c, tc.h, tc.w)
		w := RandUniform(r, -1, 1, tc.oc, tc.c, tc.k, tc.k)
		var bias *Tensor
		var biasSlice []float32
		if tc.bias {
			bias = RandUniform(r, -1, 1, tc.oc)
			biasSlice = bias.Data()
		}
		want := Conv2D(x, w, bias, tc.stride, tc.pad)

		pc := NewPackedConv(w, biasSlice, tc.stride, tc.pad, false)
		oh, ow := pc.OutSize(tc.h, tc.w)
		got := New(tc.n, tc.oc, oh, ow)
		pc.ForwardInto(got, x, nil)
		if d := maxAbsDiff(want.Data(), got.Data()); d > 1e-5 {
			t.Errorf("case %+v: packed conv diverges from Conv2D by %g", tc, d)
		}
		// Second run into a dirty buffer must produce identical output (the
		// epilogue and GEMM writeback must fully overwrite, not accumulate).
		for i := range got.Data() {
			got.Data()[i] = 999
		}
		pc.ForwardInto(got, x, nil)
		if d := maxAbsDiff(want.Data(), got.Data()); d > 1e-5 {
			t.Errorf("case %+v: packed conv not idempotent into dirty buffer (diff %g)", tc, d)
		}
	}
}

// TestPackedConvFusedReLU checks the epilogue ReLU against the two-pass
// reference.
func TestPackedConvFusedReLU(t *testing.T) {
	r := NewRNG(12)
	x := RandUniform(r, -1, 1, 2, 3, 14, 14)
	w := RandUniform(r, -1, 1, 6, 3, 3, 3)
	bias := RandUniform(r, -1, 1, 6)

	want := Conv2D(x, w, bias, 2, 1)
	ReLUInto(want, want)
	pc := NewPackedConv(w, bias.Data(), 2, 1, true)
	oh, ow := pc.OutSize(14, 14)
	got := New(2, 6, oh, ow)
	pc.ForwardInto(got, x, nil)
	if d := maxAbsDiff(want.Data(), got.Data()); d > 1e-5 {
		t.Fatalf("fused ReLU diverges from two-pass reference by %g", d)
	}
	neg := 0
	for _, v := range got.Data() {
		if v < 0 {
			neg++
		}
	}
	if neg != 0 {
		t.Fatalf("fused ReLU left %d negative outputs", neg)
	}
}

// TestPackedConvAsFullyConnected runs an FC layer through the pointwise
// path — the compiled plan's Gemm lowering — against the naive kernel.
func TestPackedConvAsFullyConnected(t *testing.T) {
	r := NewRNG(13)
	const n, in, out = 4, 24, 5
	x := RandUniform(r, -1, 1, n, in)
	w := RandUniform(r, -1, 1, out, in)
	bias := RandUniform(r, -1, 1, out)

	want := New(n, out)
	matmulNaive(want.data, out, x.data, in, transposed(w).data, out, n, in, out, false)
	for row := 0; row < n; row++ {
		for j := 0; j < out; j++ {
			want.Data()[row*out+j] += bias.Data()[j]
		}
	}

	pc := NewPackedConv(w.Reshape(out, in, 1, 1), bias.Data(), 1, 0, false)
	got := New(n, out)
	pc.ForwardInto(got.Reshape(n, out, 1, 1), x.Reshape(n, in, 1, 1), nil)
	if d := maxAbsDiff(want.Data(), got.Data()); d > 1e-5 {
		t.Fatalf("FC-as-pointwise diverges from the naive reference by %g", d)
	}
}

// TestPackedConvConcurrent hammers one shared pack from many goroutines;
// run under -race this pins the lazy sync.Once pack and the read-only
// execution path as safe to share.
func TestPackedConvConcurrent(t *testing.T) {
	r := NewRNG(14)
	x := RandUniform(r, -1, 1, 2, 4, 16, 16)
	w := RandUniform(r, -1, 1, 8, 4, 3, 3)
	pc := NewPackedConv(w, nil, 1, 1, true)
	oh, ow := pc.OutSize(16, 16)
	ref := New(2, 8, oh, ow)
	pc.ForwardInto(ref, x, nil)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := New(2, 8, oh, ow)
			for i := 0; i < 20; i++ {
				pc.ForwardInto(out, x, nil)
			}
			if d := maxAbsDiff(ref.Data(), out.Data()); d != 0 {
				t.Errorf("concurrent forward diverged by %g", d)
			}
		}()
	}
	wg.Wait()
}

// TestIntoOpsMatchAllocatingOps holds the elementwise and pooling *Into
// ops — the only implementation of each that training and the plans run —
// to plain loops and to the tap-by-tap pool.
func TestIntoOpsMatchAllocatingOps(t *testing.T) {
	r := NewRNG(15)
	a := RandUniform(r, -1, 1, 2, 3, 5, 7)
	b := RandUniform(r, -1, 1, 2, 3, 5, 7)
	sum, sumReLU, reLU := New(a.Shape()...), New(a.Shape()...), New(a.Shape()...)
	for i, v := range a.data {
		sum.data[i] = v + b.data[i]
		sumReLU.data[i] = max(v+b.data[i], 0)
		reLU.data[i] = max(v, 0)
	}

	dst := New(2, 3, 5, 7)
	AddInto(dst, a, b)
	if d := maxAbsDiff(sum.Data(), dst.Data()); d != 0 {
		t.Errorf("AddInto diverges by %g", d)
	}
	AddReLUInto(dst, a, b)
	if d := maxAbsDiff(sumReLU.Data(), dst.Data()); d != 0 {
		t.Errorf("AddReLUInto diverges by %g", d)
	}
	ReLUInto(dst, a)
	if d := maxAbsDiff(reLU.Data(), dst.Data()); d != 0 {
		t.Errorf("ReLUInto diverges by %g", d)
	}
	// Aliased destination: dst == a is the in-place residual join.
	aCopy := New(a.Shape()...)
	copy(aCopy.Data(), a.Data())
	AddReLUInto(aCopy, aCopy, b)
	if d := maxAbsDiff(sumReLU.Data(), aCopy.Data()); d != 0 {
		t.Errorf("aliased AddReLUInto diverges by %g", d)
	}

	x := RandUniform(r, -1, 1, 2, 4, 11, 9)
	for _, pad := range []int{0, 1} {
		if d := maxAbsDiff(maxPoolRef(x, 3, 2, pad).Data(), maxPool(x, 3, 2, pad).Data()); d != 0 {
			t.Errorf("MaxPool2DInto (pad %d) diverges by %g", pad, d)
		}
	}

	// The reference sums in float64 and scales by the float64 reciprocal,
	// the arithmetic the training layer has always used.
	wantGAP := New(2, 4)
	for p := range wantGAP.data {
		s := 0.0
		for _, v := range x.data[p*11*9 : (p+1)*11*9] {
			s += float64(v)
		}
		wantGAP.data[p] = float32(s * (1.0 / float64(11*9)))
	}
	gotGAP := New(2, 4)
	GlobalAvgPool2DInto(gotGAP, x)
	if d := maxAbsDiff(wantGAP.Data(), gotGAP.Data()); d != 0 {
		t.Errorf("GlobalAvgPool2DInto diverges by %g", d)
	}
}
