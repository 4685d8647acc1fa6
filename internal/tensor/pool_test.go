package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"drainnas/internal/parallel"
)

func TestMaxPool2DBasic(t *testing.T) {
	// 1×1×4×4 input with known values.
	in := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := maxPool(in, 2, 2, 0)
	want := []float32{6, 8, 14, 16}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("MaxPool=%v want %v", out.Data(), want)
		}
	}
}

// maxPool pools x through MaxPool2DInto into a tensor of its own.
func maxPool(x *Tensor, kernel, stride, pad int) *Tensor {
	n, c, h, w := dims4("maxPool", x)
	out := New(n, c, ConvOut(h, kernel, stride, pad), ConvOut(w, kernel, stride, pad))
	MaxPool2DInto(out, x, kernel, stride, pad)
	return out
}

// maxPoolRef pools x plane by plane through maxPoolPlaneRef, the tap-by-tap
// oracle.
func maxPoolRef(x *Tensor, kernel, stride, pad int) *Tensor {
	n, c, h, w := dims4("maxPoolRef", x)
	oh, ow := ConvOut(h, kernel, stride, pad), ConvOut(w, kernel, stride, pad)
	out := New(n, c, oh, ow)
	for p := 0; p < n*c; p++ {
		maxPoolPlaneRef(out.data[p*oh*ow:(p+1)*oh*ow], x.data[p*h*w:(p+1)*h*w], h, w, oh, ow, kernel, stride, pad)
	}
	return out
}

func TestMaxPool2DStride1Pad1(t *testing.T) {
	in := FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	out := maxPool(in, 3, 1, 1)
	// Every 3×3 window clipped to the image contains 4 → all outputs are 4
	// except corners which still include 4. With k=3,s=1,p=1 on 2×2 → 2×2 out.
	if out.Dim(2) != 2 || out.Dim(3) != 2 {
		t.Fatalf("shape %v", out.Shape())
	}
	for _, v := range out.Data() {
		if v != 4 {
			t.Fatalf("out=%v", out.Data())
		}
	}
}

// TestMaxPoolIntoMatchesMaxPool2D holds the two pools — float and int8,
// which share one plane job — to the tap-by-tap reference bit for bit, at
// one worker and at five: windows wholly inside the plane, frames of every width (pad 0, pad at
// and above kernel/2, windows that see nothing but padding), non-square
// planes, kernels larger than the input, stride above the kernel, and rows
// wide enough for the AVX2 int8 row pass's groups of sixteen.
func TestMaxPoolIntoMatchesMaxPool2D(t *testing.T) {
	cases := []struct{ h, w, kernel, stride, pad int }{
		{50, 50, 3, 2, 1}, // the deployed stem pool
		{11, 9, 3, 2, 0},
		{11, 9, 3, 2, 1},
		{7, 13, 2, 2, 0},
		{7, 13, 2, 2, 1},
		{9, 6, 3, 1, 2}, // pad above kernel/2
		{4, 5, 3, 1, 3}, // corner windows see only padding
		{4, 4, 5, 1, 2}, // kernel larger than the input
		{2, 3, 7, 2, 3},
		{1, 1, 3, 1, 1},
		{12, 10, 2, 3, 0}, // stride above the kernel
		{6, 17, 5, 2, 2},
		{5, 40, 3, 1, 1}, // int8 row groups of sixteen, a tail that overlaps
		{6, 71, 3, 2, 1},
		{4, 32, 2, 2, 0}, // one whole group
	}
	prev := parallel.DefaultWorkers
	defer func() { parallel.DefaultWorkers = prev }()
	rng := NewRNG(77)
	const n, c = 2, 3
	for _, workers := range []int{1, 5} {
		parallel.DefaultWorkers = workers
		for _, tc := range cases {
			// Integer-valued data, so the same planes run through both types.
			x := New(n, c, tc.h, tc.w)
			q := make([]int8, len(x.data))
			for i := range q {
				q[i] = int8(rng.Intn(9) - 4)
				x.data[i] = float32(q[i])
			}
			want := maxPoolRef(x, tc.kernel, tc.stride, tc.pad)
			got := New(want.Shape()...)
			got.Fill(99)
			MaxPool2DInto(got, x, tc.kernel, tc.stride, tc.pad)
			gotQ := make([]int8, len(want.data))
			QMaxPool2DInto(gotQ, q, n, c, tc.h, tc.w, tc.kernel, tc.stride, tc.pad)
			for i, w := range want.data {
				if math.Float32bits(got.data[i]) != math.Float32bits(w) {
					t.Fatalf("%+v workers=%d: MaxPool2DInto[%d] = %v, reference %v", tc, workers, i, got.data[i], w)
				}
				if float32(gotQ[i]) != w {
					t.Fatalf("%+v workers=%d: QMaxPool2DInto[%d] = %d, reference %v", tc, workers, i, gotQ[i], w)
				}
			}
		}
		// Real-valued planes through the float path alone.
		for _, tc := range cases {
			x := RandNormal(rng, 1, n, c, tc.h, tc.w)
			want := maxPoolRef(x, tc.kernel, tc.stride, tc.pad)
			got := maxPool(x, tc.kernel, tc.stride, tc.pad)
			for i, w := range want.data {
				if math.Float32bits(got.data[i]) != math.Float32bits(w) {
					t.Fatalf("%+v workers=%d: MaxPool2DInto[%d] = %v, reference %v", tc, workers, i, got.data[i], w)
				}
			}
		}
	}
}

func TestMaxPool2DBackwardRouting(t *testing.T) {
	in := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := maxPool(in, 2, 2, 0)
	gout := Ones(out.Shape()...)
	gin := MaxPool2DBackward(gout, in, out, 2, 2, 0)
	// Gradient lands exactly on the max positions.
	sum := gin.Sum()
	if sum != 4 {
		t.Fatalf("gradient mass %v, want 4", sum)
	}
	for _, idx := range []int{5, 7, 13, 15} {
		if gin.Data()[idx] != 1 {
			t.Fatalf("gradient missing at %d: %v", idx, gin.Data())
		}
	}
}

func TestMaxPoolGradientMassConserved(t *testing.T) {
	// Property: with non-overlapping windows the backward pass conserves
	// gradient mass.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		in := RandNormal(r, 1, 2, 3, 8, 8)
		out := maxPool(in, 2, 2, 0)
		gout := RandNormal(r, 1, out.Shape()...)
		gin := MaxPool2DBackward(gout, in, out, 2, 2, 0)
		return math.Abs(gin.Sum()-gout.Sum()) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalAvgPool2D(t *testing.T) {
	in := FromSlice([]float32{
		1, 2, 3, 4, // plane (0,0): mean 2.5
		10, 10, 10, 10, // plane (0,1): mean 10
	}, 1, 2, 2, 2)
	out := New(1, 2)
	GlobalAvgPool2DInto(out, in)
	if out.Dim(0) != 1 || out.Dim(1) != 2 {
		t.Fatalf("shape %v", out.Shape())
	}
	if out.At(0, 0) != 2.5 || out.At(0, 1) != 10 {
		t.Fatalf("out=%v", out.Data())
	}
}

func TestGlobalAvgPoolBackward(t *testing.T) {
	gout := FromSlice([]float32{4, 8}, 1, 2)
	gin := GlobalAvgPool2DBackward(gout, []int{1, 2, 2, 2})
	// Each of the 4 positions in plane 0 gets 4/4 = 1; plane 1 gets 2.
	for i := 0; i < 4; i++ {
		if gin.Data()[i] != 1 {
			t.Fatalf("plane0 grad %v", gin.Data())
		}
	}
	for i := 4; i < 8; i++ {
		if gin.Data()[i] != 2 {
			t.Fatalf("plane1 grad %v", gin.Data())
		}
	}
}

func TestAvgPool2D(t *testing.T) {
	in := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := AvgPool2D(in, 2, 2, 0)
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("AvgPool=%v want %v", out.Data(), want)
		}
	}
}

func TestAvgPool2DPaddingCountsOnlyValid(t *testing.T) {
	in := Ones(1, 1, 2, 2)
	out := AvgPool2D(in, 3, 2, 1)
	// One output: window covers the whole image (4 valid taps of value 1).
	if out.Numel() != 1 || out.Data()[0] != 1 {
		t.Fatalf("out=%v shape=%v", out.Data(), out.Shape())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(2024)
	n := 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(5)
	s := r.Split()
	// Streams should diverge immediately.
	if r.Uint64() == s.Uint64() {
		t.Fatal("split stream identical to parent")
	}
}

func TestRandUniformRange(t *testing.T) {
	r := NewRNG(8)
	u := RandUniform(r, -2, 3, 1000)
	if u.Min() < -2 || u.Max() >= 3 {
		t.Fatalf("uniform out of range: [%v, %v]", u.Min(), u.Max())
	}
}
