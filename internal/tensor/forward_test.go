package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// packPanelsRef is the panel packer as it was before the stride-2 mover,
// every strided run moving lane by lane; the packer is held to it.
func packPanelsRef(dst, in []float32, g *convGeom, lo, hi, nr int) {
	kdim, taps, hw := g.kdim(), g.kh*g.kw, g.h*g.w
	end := min(hi, g.n*g.pixels())
	clear(dst[:(hi-lo)*kdim])
	var r colRun
	wk := g.walk(lo, end, nr)
	for p := 0; wk.next(&r); {
		panel := dst[p*kdim*nr:]
		for ky := 0; ky < g.kh; ky++ {
			for kx := 0; kx < g.kw; kx++ {
				t := ky*g.kw + kx
				mask, off := g.tapMask(&r, ky, kx), g.tapOffset(&r, ky, kx)
				for ch := 0; ch < g.c; ch++ {
					row := panel[(ch*taps+t)*nr+r.lane:]
					for i := 0; i < r.n; i++ {
						if mask>>i&1 != 0 {
							row[i] = in[off+ch*hw+i*g.stride]
						}
					}
				}
			}
		}
		if wk.lane == 0 {
			p++
		}
	}
}

// TestPackPanelsStride2MatchesReference packs every PaperSpace stem — kernel
// 3 and 7, stride 1 and 2, padding 1 to 3, 5 and 7 channels — at batch 1 and
// 3 on the deployed 100² chip, NAS's 32² and an odd 33×37, into panels of
// 16 and 4, and holds each panel to the lane-by-lane packer bit for bit. The
// last sample's final runs read within 32 values of the tensor's end, where
// the mover must give way to the lane loop.
func TestPackPanelsStride2MatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	nan := float32(math.NaN())
	for _, side := range [][2]int{{100, 100}, {32, 32}, {33, 37}} {
		for _, k := range []int{3, 7} {
			for _, s := range []int{1, 2} {
				for pad := 1; pad <= 3; pad++ {
					for _, c := range []int{5, 7} {
						for _, n := range []int{1, 3} {
							tc := convGeomCase{n: n, c: c, h: side[0], w: side[1], kh: k, kw: k, stride: s, pad: pad}
							checkPackPanels(t, r, tc, nan)
						}
					}
				}
			}
		}
	}
	for _, tc := range allGeomCases(71, 100) {
		checkPackPanels(t, r, tc, nan)
	}
}

func checkPackPanels(t *testing.T, r *rand.Rand, tc convGeomCase, poison float32) {
	t.Helper()
	g := tc.geom()
	in := RandNormal(NewRNG(uint64(r.Int63())), 1, g.n, g.c, g.h, g.w)
	kdim := g.kdim()
	for _, nr := range []int{16, 4} {
		panels := (g.n*g.pixels() + nr - 1) / nr
		got := make([]float32, panels*kdim*nr)
		want := make([]float32, len(got))
		for p := 0; p < panels; {
			b := min(1+r.Intn(5), panels-p)
			packPanelsRef(want[p*kdim*nr:(p+b)*kdim*nr], in.data, &g, p*nr, (p+b)*nr, nr)
			forwardPaths(func(avx2 bool) {
				dst := got[p*kdim*nr : (p+b)*kdim*nr]
				for i := range dst {
					dst[i] = poison
				}
				packPanels(dst, in.data, &g, p*nr, (p+b)*nr, nr)
				for i, w := range want[p*kdim*nr : (p+b)*kdim*nr] {
					if math.Float32bits(dst[i]) != math.Float32bits(w) {
						i += p * kdim * nr
						t.Fatalf("%v nr=%d avx2=%v: panel %d tap %d lane %d = %v, reference %v",
							tc, nr, avx2, i/(kdim*nr), i%(kdim*nr)/nr, i%nr, dst[i-p*kdim*nr], w)
					}
				}
			})
			p += b
		}
	}
}

// forwardPaths runs f with the forward's AVX2 kernels, where the host has
// them, and then without.
func forwardPaths(f func(avx2 bool)) {
	prev := forwardAVX2
	defer func() { forwardAVX2 = prev }()
	if prev {
		f(true)
	}
	forwardAVX2 = false
	f(false)
}

// specialFloats are the values on which the ReLUs and the join's addition
// could part ways with their Go loops.
var specialFloats = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(1), math.Float32frombits(0x80000001), 1, -1,
}

// TestStoreTileMatchesStore holds the AVX2 epilogue to store, the Go loop
// it stands in for, bit for bit (NaN for NaN): every row count of the 6×16
// tile, every stretch length and offset, with and without bias, conv ReLU
// and residual join, on values salted with ±0, NaN, ±Inf and subnormals.
func TestStoreTileMatchesStore(t *testing.T) {
	if !forwardAVX2 {
		t.Skip("no AVX2: store is the only epilogue")
	}
	r := rand.New(rand.NewSource(73))
	// Every other trial draws from ±0, NaN and ±1 alone, so −0 + −0 (the
	// one sum that is −0, where the two ReLUs differ) turns up often.
	var pool []float32
	draw := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			if r.Intn(4) == 0 || len(pool) < len(specialFloats) {
				v[i] = pool[r.Intn(len(pool))]
			} else {
				v[i] = float32(r.NormFloat64())
			}
		}
		return v
	}
	const mr, nr, stride = 6, 16, 23
	for trial := 0; trial < 4000; trial++ {
		pool = specialFloats
		if trial%2 == 1 {
			pool = []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), 1, -1}
		}
		rows, n := 1+r.Intn(mr), 1+r.Intn(nr)
		lane := r.Intn(nr - n + 1)
		cbuf := draw((mr + 1) * nr)
		j := convCall{relu: r.Intn(2) == 0, out: make([]float32, mr*stride)}
		if r.Intn(4) != 0 {
			j.bias = draw(mr)
		}
		if r.Intn(2) == 0 {
			j.join = draw(mr * stride)
		}
		want := make([]float32, len(j.out))
		for i := range j.out {
			j.out[i], want[i] = 7, 7
		}
		for ir := 0; ir < rows; ir++ {
			j.store(want[ir*stride:], cbuf[ir*nr+lane:ir*nr+lane+n], j.joinRow(ir*stride), ir)
		}
		bias, join := &noBias[0], (*float32)(nil)
		if j.bias != nil {
			bias = &j.bias[0]
		}
		if j.join != nil {
			join = &j.join[0]
		}
		storeTile(&j.out[0], &cbuf[lane], join, bias, stride, rows, n, j.relu)
		for i := range want {
			a, b := j.out[i], want[i]
			if math.Float32bits(a) != math.Float32bits(b) && !(a != a && b != b) {
				t.Fatalf("trial %d (rows %d, n %d, lane %d, relu %v, bias %v, join %v): out[%d] = %v, store %v",
					trial, rows, n, lane, j.relu, j.bias != nil, j.join != nil, i, a, b)
			}
		}
	}
}

// TestPackedConvJoinMatchesAddReLU holds a conv with a fused residual join
// to the conv into a tensor of its own followed by AddReLUInto, bit for bit,
// on tiled and naive layers, with and without the conv's own ReLU, under
// this host's kernel and the scalar one.
func TestPackedConvJoinMatchesAddReLU(t *testing.T) {
	cases := []struct{ n, c, side, oc, k, stride, pad int }{
		{2, 32, 13, 32, 3, 1, 1}, // a stage's block conv (tiled)
		{3, 16, 9, 24, 1, 2, 0},  // a projection
		{1, 3, 5, 4, 3, 1, 1},    // below the tiling cutoff: the naive path
		{2, 5, 33, 8, 7, 2, 3},   // a stem geometry
	}
	check := func(kernel string) {
		r := NewRNG(79)
		for _, tc := range cases {
			for _, relu := range []bool{false, true} {
				x := RandNormal(r, 1, tc.n, tc.c, tc.side, tc.side)
				pc := NewPackedConv(RandNormal(r, 0.2, tc.oc, tc.c, tc.k, tc.k), RandNormal(r, 0.5, tc.oc).Data(), tc.stride, tc.pad, relu)
				oh, ow := pc.OutSize(tc.side, tc.side)
				join := RandNormal(r, 1, tc.n, tc.oc, oh, ow)
				for i := 0; i < len(join.data); i += 7 {
					join.data[i] = specialFloats[i%len(specialFloats)]
				}
				want := New(tc.n, tc.oc, oh, ow)
				pc.ForwardInto(want, x, nil)
				AddReLUInto(want, want, join)
				got := New(tc.n, tc.oc, oh, ow)
				got.Fill(7)
				pc.ForwardInto(got, x, join)
				for i, w := range want.data {
					if g := got.data[i]; math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
						t.Fatalf("%s %+v relu=%v: out[%d] = %v, conv then AddReLUInto %v", kernel, tc, relu, i, g, w)
					}
				}
			}
		}
	}
	check(GemmKernelName())
	if GemmKernelName() != "scalar-4x4" {
		defer forceScalarKernel()()
		check("scalar-4x4")
	}
}
