package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// winoInputRef is winoInput tile by tile in Go: V = Bᵀ·d·B for the 4×4
// patch d of tile (ty, tx) of sample s, channel ch, zero outside the image,
// in the order of operations the kernel uses.
func winoInputRef(v *[winoPoints]float32, in []float32, c, h, w, s, ch, ty, tx int) {
	var d [4][4]float32
	for r := range d {
		for q := range d[r] {
			if y, x := 2*ty-1+r, 2*tx-1+q; y >= 0 && y < h && x >= 0 && x < w {
				d[r][q] = in[((s*c+ch)*h+y)*w+x]
			}
		}
	}
	var t [4][4]float32 // d·B
	for r, row := range d {
		t[r] = [4]float32{row[0] - row[2], row[1] + row[2], row[2] - row[1], row[1] - row[3]}
	}
	for j := 0; j < 4; j++ {
		v[j], v[4+j], v[8+j], v[12+j] = t[0][j]-t[2][j], t[1][j]+t[2][j], t[2][j]-t[1][j], t[1][j]-t[3][j]
	}
}

// winoOutputRef is Aᵀ·M·A for one tile, M's points at m[ξ], in the order of
// operations the kernel uses: the tile's outputs (0,0), (0,1), (1,0), (1,1).
func winoOutputRef(m *[winoPoints]float32) [4]float32 {
	var p [2][4]float32
	for j := 0; j < 4; j++ {
		p[0][j] = m[j] + m[4+j] + m[8+j]
		p[1][j] = m[4+j] - m[8+j] - m[12+j]
	}
	return [4]float32{
		p[0][0] + p[0][1] + p[0][2], p[0][1] - p[0][2] - p[0][3],
		p[1][0] + p[1][1] + p[1][2], p[1][1] - p[1][2] - p[1][3],
	}
}

// winoGroupCase draws a group of tiles inside a panel of an h×w map of a
// batch of n samples.
func winoGroupCase(r *rand.Rand, n, h, w int) winoGroup {
	tw, th := (w+1)/2, (h+1)/2
	g := winoGroup{s: r.Intn(n), ty: r.Intn(th), tx: r.Intn(tw)}
	g.n = 1 + r.Intn(min(tw-g.tx, 8))
	g.lane = r.Intn(gemmNR - g.n + 1)
	return g
}

func bitsEqual(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// TestWinoInputMatchesReference holds the AVX2 input transform to the Go
// reference bit for bit on groups drawn anywhere in maps from 1×1 to 17×17
// — first and last tile rows and columns, whose patches reach into the
// padding, included — as the last group of a panel: its own lanes hold the
// reference, the lanes after it are zero and the lanes before it are not
// written.
func TestWinoInputMatchesReference(t *testing.T) {
	if !forwardAVX2 {
		t.Skip("the Winograd transforms are AVX2 kernels")
	}
	r := rand.New(rand.NewSource(3))
	const sentinel = 1234.5
	for iter := 0; iter < 2000; iter++ {
		n, c, h, w := 1+r.Intn(3), 1+r.Intn(5), 1+r.Intn(17), 1+r.Intn(17)
		in := make([]float32, n*c*h*w)
		for i := range in {
			in[i] = float32(r.NormFloat64())
			if r.Intn(16) == 0 {
				in[i] = specialFloats[r.Intn(len(specialFloats))]
			}
		}
		g := winoGroupCase(r, n, h, w)
		blk := make([]float32, winoPoints*(c+1)*gemmNR)
		for i := range blk {
			blk[i] = sentinel
		}
		job := winoCall{in: in, wp: &winoPack{kc: c, kBlocks: 1}, n: n, c: c, h: h, w: w, tw: (w + 1) / 2, tiles: (h + 1) / 2 * ((w + 1) / 2)}
		job.transformIn(blk, 0, []winoGroup{g})
		var v [winoPoints]float32
		for ch := 0; ch < c; ch++ {
			for lane := 0; lane < gemmNR; lane++ {
				inGroup := lane >= g.lane && lane < g.lane+g.n
				if inGroup {
					winoInputRef(&v, in, c, h, w, g.s, ch, g.ty, g.tx+lane-g.lane)
				}
				for xi := 0; xi < winoPoints; xi++ {
					got := blk[(xi*(c+1)+ch)*gemmNR+lane]
					switch {
					case lane < g.lane && got != sentinel:
						t.Fatalf("iter %d %dx%d group %+v: lane %d of ξ %d channel %d written", iter, h, w, g, lane, xi, ch)
					case lane >= g.lane+g.n && math.Float32bits(got) != 0:
						t.Fatalf("iter %d %dx%d group %+v: lane %d of ξ %d channel %d, past the last tile, = %v, want 0", iter, h, w, g, lane, xi, ch, got)
					case inGroup && !bitsEqual(got, v[xi]):
						t.Fatalf("iter %d %dx%d group %+v: lane %d ξ %d channel %d = %v, reference %v", iter, h, w, g, lane, xi, ch, got, v[xi])
					}
				}
			}
		}
	}
}

// TestWinoOutputMatchesReference holds the AVX2 output transform and its
// epilogue to the Go reference followed by store, bit for bit, with and
// without ReLU and join, special values among the points and the join, and
// checks it writes the group's outputs inside the map and nothing else.
func TestWinoOutputMatchesReference(t *testing.T) {
	if !forwardAVX2 || gemmMR != 6 {
		t.Skip("the Winograd output transform reads the AVX2 kernel's 6×16 tiles")
	}
	r := rand.New(rand.NewSource(5))
	const sentinel = -4321.5
	special := func(v float32) float32 {
		if r.Intn(12) == 0 {
			return specialFloats[r.Intn(len(specialFloats))]
		}
		return v
	}
	for iter := 0; iter < 2000; iter++ {
		n, oc, h, w := 1+r.Intn(2), 1+r.Intn(8), 1+r.Intn(17), 1+r.Intn(17)
		mr := 6
		rt := r.Intn((oc + mr - 1) / mr)
		rows := min(mr, oc-rt*mr)
		g := winoGroupCase(r, n, h, w)
		m := make([]float32, (winoPoints*mr+1)*gemmNR)
		for i := range m {
			m[i] = special(float32(r.NormFloat64()))
		}
		var bias []float32
		if r.Intn(2) == 0 {
			bias = make([]float32, oc)
			for i := range bias {
				bias[i] = special(float32(r.NormFloat64()))
			}
		}
		var join []float32
		if r.Intn(2) == 0 {
			join = make([]float32, n*oc*h*w)
			for i := range join {
				join[i] = special(float32(r.NormFloat64()))
			}
		}
		relu := r.Intn(2) == 0
		out := make([]float32, n*oc*h*w)
		for i := range out {
			out[i] = sentinel
		}
		want := append([]float32(nil), out...)
		ref := convCall{bias: bias, relu: relu}
		for ir := 0; ir < rows; ir++ {
			o := rt*mr + ir
			for t := 0; t < g.n; t++ {
				var pts [winoPoints]float32
				for xi := range pts {
					pts[xi] = m[xi*mr*gemmNR+ir*gemmNR+g.lane+t]
				}
				y := winoOutputRef(&pts)
				for k, v := range y {
					oy, ox := 2*g.ty+k/2, 2*(g.tx+t)+k%2
					if oy >= h || ox >= w {
						continue
					}
					at := ((g.s*oc+o)*h+oy)*w + ox
					var jn []float32
					if join != nil {
						jn = join[at : at+1]
					}
					ref.store(want[at:at+1], []float32{v}, jn, o)
				}
			}
		}
		job := winoCall{out: out, join: join, bias: bias, relu: relu, h: h, w: w, oc: oc}
		job.transformOut(m, rt, &g)
		for i := range out {
			if !bitsEqual(out[i], want[i]) {
				t.Fatalf("iter %d %dx%d oc=%d rt=%d group %+v relu=%v join=%v: out[%d] = %v, want %v",
					iter, h, w, oc, rt, g, relu, join != nil, i, out[i], want[i])
			}
		}
	}
}

// winoBound is the stated bound on how far the Winograd path may land from
// the direct one: for each output, (34·C + 128)·2⁻²⁴ times its scale, the
// sum over channels of Σ|w| over the 3×3 filter times Σ|x| over the 4×4
// patch of the output's tile, plus |bias| and |join|. It covers both paths'
// rounding: the direct sum of 9·C products, the transforms' additions, the
// channel sums of the sixteen products U·V, whose magnitudes add to at most
// 25 times the scale, and the output transform's.
func winoBound(c int, scale float64) float64 {
	return float64(34*c+128) * 0x1p-24 * scale
}

// winoScales returns each output's scale (see winoBound).
func winoScales(x, weight *Tensor, bias, join []float32) []float64 {
	n, c, h, w := dims4("x", x)
	oc := weight.shape[0]
	wsum := make([]float64, oc*c)
	for i := range wsum {
		for _, v := range weight.data[i*9 : i*9+9] {
			wsum[i] += math.Abs(float64(v))
		}
	}
	scales := make([]float64, n*oc*h*w)
	for s := 0; s < n; s++ {
		for ty := 0; ty < (h+1)/2; ty++ {
			for tx := 0; tx < (w+1)/2; tx++ {
				patch := make([]float64, c)
				for ch := range patch {
					for y := max(2*ty-1, 0); y < min(2*ty+3, h); y++ {
						for xx := max(2*tx-1, 0); xx < min(2*tx+3, w); xx++ {
							patch[ch] += math.Abs(float64(x.data[((s*c+ch)*h+y)*w+xx]))
						}
					}
				}
				for o := 0; o < oc; o++ {
					var sc float64
					for ch := range patch {
						sc += wsum[o*c+ch] * patch[ch]
					}
					if bias != nil {
						sc += math.Abs(float64(bias[o]))
					}
					for oy := 2 * ty; oy < min(2*ty+2, h); oy++ {
						for ox := 2 * tx; ox < min(2*tx+2, w); ox++ {
							at := ((s*oc+o)*h+oy)*w + ox
							scales[at] = sc
							if join != nil {
								scales[at] += math.Abs(float64(join[at]))
							}
						}
					}
				}
			}
		}
	}
	return scales
}

// winoCheck runs pc on x both ways — Winograd, and the direct driver on the
// same weights — and holds each output to the stated bound. Where the
// direct output is not finite the Winograd one must not be either. It
// returns the largest error as a share of its bound.
func winoCheck(t testing.TB, pc *PackedConv, x, join *Tensor) float64 {
	t.Helper()
	n, _, h, w := dims4("x", x)
	if !pc.Winograd(h, w) {
		t.Fatalf("%dx%d with %d channels does not take the Winograd path", h, w, pc.c)
	}
	got, want := New(n, pc.oc, h, w), New(n, pc.oc, h, w)
	var jd []float32
	if join != nil {
		jd = join.data
	}
	pc.ForwardInto(got, x, join)
	convInto(want, x, pc.wp, pc.bias, &pc.convShape, join)
	scales := winoScales(x, FromSlice(pc.wp.src, pc.oc, pc.c, 3, 3), pc.bias, jd)
	worst := 0.0
	for i, wv := range want.data {
		gv := got.data[i]
		wf := !math.IsNaN(float64(wv)) && !math.IsInf(float64(wv), 0)
		gf := !math.IsNaN(float64(gv)) && !math.IsInf(float64(gv), 0)
		switch {
		case !wf && gf:
			t.Fatalf("C=%d OC=%d %dx%d batch %d: out[%d] = %v, direct %v", pc.c, pc.oc, h, w, n, i, gv, wv)
		case !wf || !gf || math.IsInf(scales[i], 0):
			continue
		}
		bound := winoBound(pc.c, scales[i])
		d := math.Abs(float64(gv) - float64(wv))
		if d > bound {
			t.Fatalf("C=%d OC=%d %dx%d batch %d relu=%v join=%v: out[%d] = %v, direct %v: |Δ| %g over the bound %g",
				pc.c, pc.oc, h, w, n, pc.relu, join != nil, i, gv, wv, d, bound)
		}
		if bound > 0 {
			worst = max(worst, d/bound)
		}
	}
	return worst
}

// TestWinogradMatchesDirect holds the Winograd path to the direct driver
// within the stated bound (winoBound) on the deployed model's body shapes,
// the stock ResNet-18's widths, odd maps whose last tile row and column
// hang over the edge, and every epilogue.
func TestWinogradMatchesDirect(t *testing.T) {
	if !forwardAVX2 || gemmNR != 16 {
		t.Skip("the Winograd path runs with the AVX2 kernel only")
	}
	cases := []struct{ n, c, oc, side int }{
		{2, 32, 32, 25},
		{1, 64, 64, 13},
		{3, 128, 128, 7},
		{1, 301, 20, 6}, // two channel blocks, the second short
		{2, 512, 13, 6}, // three channel blocks
		{3, 16, 7, 9},
		{2, 24, 40, 17},
		{1, 17, 6, 16},
	}
	r := NewRNG(41)
	worst := 0.0
	for _, tc := range cases {
		for _, relu := range []bool{false, true} {
			for _, withJoin := range []bool{false, true} {
				x := RandNormal(r, 1, tc.n, tc.c, tc.side, tc.side)
				pc := NewPackedConv(RandNormal(r, 0.1, tc.oc, tc.c, 3, 3), RandNormal(r, 0.5, tc.oc).Data(), 1, 1, relu)
				var join *Tensor
				if withJoin {
					join = RandNormal(r, 1, tc.n, tc.oc, tc.side, tc.side)
				}
				worst = max(worst, winoCheck(t, pc, x, join))
			}
		}
	}
	t.Logf("largest error: %.3g of the bound", worst)
}

// TestWinogradRule pins which shapes take the path: 3×3, stride 1, pad 1,
// at least winoMinC input channels, a map of 6×6 or more (or as many
// outputs per panel), and only under the AVX2 kernel.
func TestWinogradRule(t *testing.T) {
	cases := []struct {
		c, k, stride, pad, h, w int
		want                    bool
	}{
		{32, 3, 1, 1, 25, 25, true},
		{64, 3, 1, 1, 13, 13, true},
		{128, 3, 1, 1, 7, 7, true},
		{256, 3, 1, 1, 6, 6, true},
		{256, 3, 1, 1, 5, 5, false}, // nine tiles a sample: 256 lanes of work for 225 outputs
		{256, 3, 1, 1, 4, 4, false},
		{32, 3, 1, 1, 100, 100, true},
		{32, 3, 1, 1, 1, 100, false}, // fifty tiles, a row each
		{winoMinC, 3, 1, 1, 25, 25, true},
		{winoMinC - 1, 3, 1, 1, 25, 25, false},
		{5, 3, 1, 1, 100, 100, false}, // a PaperSpace stem
		{32, 3, 2, 1, 25, 25, false},
		{32, 1, 1, 0, 25, 25, false},
		{32, 3, 1, 0, 25, 25, false},
		{32, 7, 1, 3, 25, 25, false},
		{1021, 3, 1, 1, 25, 25, false},
	}
	active := forwardAVX2 && gemmNR == 16
	for _, tc := range cases {
		pc := NewPackedConv(New(4, tc.c, tc.k, tc.k), nil, tc.stride, tc.pad, false)
		if got := pc.Winograd(tc.h, tc.w); got != (tc.want && active) {
			t.Errorf("C=%d k=%d s=%d p=%d at %dx%d: Winograd %v, want %v", tc.c, tc.k, tc.stride, tc.pad, tc.h, tc.w, got, tc.want && active)
		}
	}
	defer forceScalarKernel()()
	if NewPackedConv(New(4, 32, 3, 3), nil, 1, 1, false).Winograd(25, 25) {
		t.Error("the scalar kernel takes the Winograd path")
	}
}

// winoFuzzFloat folds a float32 bit pattern into the fuzz's value range:
// Inf and NaN pass as they are, and a finite value keeps its sign and
// mantissa while its exponent folds into [2⁻²⁰, 2²¹), so that no sum of
// products of finite values overflows and a non-finite output can only
// come from a non-finite input.
func winoFuzzFloat(bits uint32) float32 {
	if bits>>23&0xff == 0xff {
		return math.Float32frombits(bits)
	}
	exp := (bits>>23&0xff)%41 + 127 - 20
	return math.Float32frombits(bits&0x807fffff | exp<<23)
}

// FuzzWinogradConv runs the Winograd path on shapes and values drawn from
// the fuzz bytes — C and OC 1 to 24, H and W 1 to 17, batch 1 to 3, ReLU and
// join each on or off, float32 bit patterns (winoFuzzFloat) for inputs,
// filters, bias and join — forced onto it whatever the rule says. It must
// not panic, must land within the stated bound of the direct path, and
// must give a non-finite output wherever the direct path does.
func FuzzWinogradConv(f *testing.F) {
	f.Add([]byte{7, 5, 12, 9, 1, 3, 0, 0, 0x3f, 0x80, 0, 0})
	f.Add([]byte{23, 23, 16, 16, 2, 0, 0x7f, 0x80, 0, 0, 0xff, 0xc0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if !forwardAVX2 || gemmNR != 16 {
			t.Skip("the Winograd path runs with the AVX2 kernel only")
		}
		if len(data) < 6 {
			return
		}
		c, oc := 1+int(data[0])%24, 1+int(data[1])%24
		h, w := 1+int(data[2])%17, 1+int(data[3])%17
		n := 1 + int(data[4])%3
		relu, withJoin := data[5]&1 != 0, data[5]&2 != 0
		vals := data[6:]
		next := func(i int) float32 {
			if len(vals) < 4 {
				return float32(math.Sin(float64(i)))
			}
			k := (4 * i) % (len(vals) - 3)
			return winoFuzzFloat(binary.LittleEndian.Uint32(vals[k:]) ^ uint32(i)*0x9e3779b9)
		}
		i := 0
		fill := func(dst []float32) {
			for j := range dst {
				dst[j] = next(i)
				i++
			}
		}
		x, weight := New(n, c, h, w), New(oc, c, 3, 3)
		bias := make([]float32, oc)
		fill(x.data)
		fill(weight.data)
		fill(bias)
		var join *Tensor
		if withJoin {
			join = New(n, oc, h, w)
			fill(join.data)
		}
		pc := NewPackedConv(weight, bias, 1, 1, relu)
		defer forceWinograd()()
		winoCheck(t, pc, x, join)
	})
}
