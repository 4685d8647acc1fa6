package tensor

import (
	"math"
	"testing"

	"drainnas/internal/parallel"
)

// naiveOracle computes the reference product with the streaming kernel the
// tiled path is specified against.
func naiveOracle(a, b *Tensor, m, k, n int, acc bool, into *Tensor) *Tensor {
	out := New(m, n)
	if into != nil {
		out.CopyFrom(into)
	}
	matmulNaive(out.data, n, a.data, k, b.data, n, m, k, n, acc)
	return out
}

// maxKernelDiff returns the largest |got-want| scaled by 1/(1+|want|), i.e.
// a blended absolute/relative error.
func maxKernelDiff(got, want *Tensor) float64 {
	worst := 0.0
	for i, w := range want.data {
		d := math.Abs(float64(got.data[i]-w)) / (1 + math.Abs(float64(w)))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// parityTol is the allowed blended error against the naive oracle. The
// scalar kernel performs the identical multiply-then-add sequence in the
// identical k order, so with acc=false it must match bitwise (tolerance 0).
// With acc=true the tiled path sums the k products first and adds the
// pre-existing C once at writeback, while naive carries C through every
// partial sum — a reordering whose drift is O(k·eps), the same order as the
// AVX2 kernel's skipped FMA roundings. Both get a k-scaled tolerance that
// stays far below the O(1) errors a real indexing bug produces.
func parityTol(k int, acc bool) float64 {
	if gemmKernelName == "scalar-4x4" && !acc {
		return 0
	}
	tol := 2e-7 * float64(k)
	if tol < 1e-5 {
		tol = 1e-5
	}
	return tol
}

// parityShapes are the edge sizes the packing layout must survive: 1,
// MR/NR/KC boundaries ±1, and non-multiples of every tile parameter. MR and
// NR cover both kernel shapes (4×4 scalar, 6×16 AVX2).
var parityShapes = []int{1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 31, 48, 63, 255, 256, 257}

func TestGEMMParityAgainstNaive(t *testing.T) {
	rng := NewRNG(7)
	check := func(t *testing.T, m, k, n int, acc bool) {
		a := RandNormal(rng, 1, m, k)
		b := RandNormal(rng, 1, k, n)
		out := New(m, n)
		var want *Tensor
		if acc {
			seed := RandNormal(rng, 1, m, n)
			out.CopyFrom(seed)
			want = naiveOracle(a, b, m, k, n, true, seed)
		} else {
			// Pre-poison the output: the kernel must overwrite, not accumulate.
			out.Fill(float32(math.NaN()))
			want = naiveOracle(a, b, m, k, n, false, nil)
		}
		gemmParallel(out.data, a.data, b.data, m, k, n, acc)
		if d := maxKernelDiff(out, want); d > parityTol(k, acc) {
			t.Fatalf("m=%d k=%d n=%d acc=%v kernel=%s: max blended diff %g", m, k, n, acc, gemmKernelName, d)
		}
	}
	run := func(t *testing.T) {
		// Cross product of edge sizes, thinned to keep runtime sane: every
		// pair of edge m,n with a few k values, plus random rectangles.
		ks := []int{1, 3, 16, 63, 255, 257}
		for _, m := range parityShapes {
			for _, n := range parityShapes {
				k := ks[(m+n)%len(ks)]
				check(t, m, k, n, (m+n+k)%2 == 0)
			}
		}
		for i := 0; i < 25; i++ {
			m, k, n := 1+rng.Intn(200), 1+rng.Intn(300), 1+rng.Intn(200)
			check(t, m, k, n, i%2 == 1)
		}
	}
	t.Run("active-kernel", run)
	t.Run("scalar-kernel", func(t *testing.T) {
		restore := forceScalarKernel()
		defer restore()
		run(t)
	})
}

func TestGEMMParityParallelTiles(t *testing.T) {
	// Force real goroutine fan-out over the tile grid regardless of the
	// host's core count, so the grid decomposition itself is exercised.
	prev := parallel.DefaultWorkers
	parallel.DefaultWorkers = 7
	defer func() { parallel.DefaultWorkers = prev }()
	rng := NewRNG(11)
	for _, sz := range [][3]int{{65, 130, 300}, {512, 64, 512}, {31, 700, 29}} {
		m, k, n := sz[0], sz[1], sz[2]
		a := RandNormal(rng, 1, m, k)
		b := RandNormal(rng, 1, k, n)
		out := New(m, n)
		gemmParallel(out.data, a.data, b.data, m, k, n, false)
		want := naiveOracle(a, b, m, k, n, false, nil)
		if d := maxKernelDiff(out, want); d > parityTol(k, false) {
			t.Fatalf("m=%d k=%d n=%d: max blended diff %g", m, k, n, d)
		}
	}
}

func TestWeightPackReuse(t *testing.T) {
	// A weight pack is packed by its first multiply and reused, not
	// re-packed, by the rest: three batches through one pointwise layer.
	rng := NewRNG(17)
	m, k, n := 48, 288, 256
	a := RandNormal(rng, 1, m, k)
	wp := newWeightPack(a.data, k, m, k)
	defer wp.release()
	var packed *float32
	for i := 0; i < 3; i++ {
		// (k, n) read as one image of k channels and n pixels: a 1×1
		// convolution over it is the plain product.
		b := RandNormal(rng, 1, 1, k, 1, n)
		out := New(1, m, 1, n)
		convInto(out, b, wp, nil, false, 1, 1, 1, 0)
		want := naiveOracle(a, b.Reshape(k, n), m, k, n, false, nil)
		if d := maxKernelDiff(out.Reshape(m, n), want); d > parityTol(k, false) {
			t.Fatalf("reuse %d: max blended diff %g", i, d)
		}
		if i == 0 {
			packed = &wp.pa.buf[0]
		}
		if got := wp.uses.Load(); got != int64(i+1) || &wp.pa.buf[0] != packed {
			t.Fatalf("multiply %d: %d uses, panels moved = %v", i, got, &wp.pa.buf[0] != packed)
		}
	}
}

func TestMatMulAccMatchesSeparate(t *testing.T) {
	rng := NewRNG(19)
	for _, sz := range [][3]int{{5, 9, 7}, {64, 64, 64}, {100, 257, 33}} {
		m, k, n := sz[0], sz[1], sz[2]
		a := RandNormal(rng, 1, m, k)
		b := RandNormal(rng, 1, k, n)
		base := RandNormal(rng, 1, m, n)
		got := base.Clone()
		MatMulAcc(got, a, b)
		want := naiveOracle(a, b, m, k, n, true, base)
		if d := maxKernelDiff(got, want); d > parityTol(k, true) {
			t.Fatalf("%v: max blended diff %g", sz, d)
		}
	}
}

func TestScratchPoolClasses(t *testing.T) {
	// A too-small pooled buffer must never be dropped: each size class only
	// hands out buffers that satisfy the request, and returning a buffer
	// keeps it available for its class.
	big := getScratch(5000)
	putScratch(big)
	small := getScratch(100) // different class; must not steal/drop big's slot
	putScratch(small)
	again := getScratch(5000)
	if cap(again) < 5000 {
		t.Fatalf("pooled capacity %d < 5000", cap(again))
	}
	putScratch(again)
	for _, n := range []int{1, 63, 64, 65, 4095, 4096, 4097} {
		buf := getScratch(n)
		if len(buf) != n {
			t.Fatalf("getScratch(%d) returned len %d", n, len(buf))
		}
		putScratch(buf)
	}
	if getScratch(0) != nil {
		t.Fatal("getScratch(0) must be nil")
	}
}

func BenchmarkGEMMKernelOnly(b *testing.B) {
	// The packed micro-kernel in isolation (no packing, no writeback): the
	// per-core roofline the full GEMM is chasing.
	kc := gemmKC
	a := make([]float32, kc*gemmMR)
	bp := make([]float32, kc*gemmNR)
	cb := make([]float32, gemmMaxTile)
	for i := range a {
		a[i] = 1
	}
	for i := range bp {
		bp[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		microKernel(a, bp, cb[:gemmMR*gemmNR], kc, true)
	}
	flops := 2 * float64(gemmMR) * float64(gemmNR) * float64(kc)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
	if math.IsNaN(float64(cb[0])) {
		b.Fatal("kernel produced NaN")
	}
}
