package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"drainnas/internal/parallel"
)

// The int8 forward's AVX2 kernels (packQRun, qstoreTile, qaddBlocks,
// quantizeBlocks) against the Go loops they stand in for, byte for byte.
// Under forceGoQuant the same calls run those loops.

// qEdgeFloats are the values rounding and clamping can get wrong: halfway
// points on both sides of zero, the clamp bounds and just past them,
// out-of-range magnitudes, signed zeros, the infinities and a NaN.
var qEdgeFloats = []float32{
	0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -126.5, 127.5, -127.5,
	127, -127, 128, -128, 127.49999, -127.49999, 1e9, -1e9, 3e38, -3e38,
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), 0.49999997, -0.49999997,
}

// qFloat draws a float: mostly a value a layer sees, sometimes an edge.
func qFloat(r *rand.Rand) float32 {
	if r.Intn(4) == 0 {
		return qEdgeFloats[r.Intn(len(qEdgeFloats))]
	}
	return float32(r.NormFloat64() * 100)
}

func TestQuantizeIntoMatchesGo(t *testing.T) {
	if !qForwardAVX2 {
		t.Skip("the int8 AVX2 kernels are not selected on this host")
	}
	r := rand.New(rand.NewSource(71))
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 100} {
		for _, scale := range []float32{1, 0.5, 0.0625, 0.37, 3e-39, float32(math.NaN()), float32(math.Inf(1)), -2} {
			src := make([]float32, n)
			for i := range src {
				src[i] = qFloat(r)
			}
			got, want := make([]int8, n), make([]int8, n)
			QuantizeInto(got, src, scale)
			restore := forceGoQuant()
			QuantizeInto(want, src, scale)
			restore()
			if !bytes.Equal(i8bytes(got), i8bytes(want)) {
				t.Fatalf("n=%d scale=%v: avx2 %v, go %v (src %v)", n, scale, got, want, src)
			}
		}
	}
}

func TestQAddIntoMatchesGo(t *testing.T) {
	if !qForwardAVX2 {
		t.Skip("the int8 AVX2 kernels are not selected on this host")
	}
	r := rand.New(rand.NewSource(73))
	ratios := []float32{0.5, 1, 1.5, 0.37, 2.25, 0, -1, 1e30, float32(math.Inf(1)), float32(math.NaN())}
	for _, n := range []int{1, 15, 16, 17, 48, 63} {
		for _, ra := range ratios {
			for _, relu := range []bool{false, true} {
				rb := ratios[r.Intn(len(ratios))]
				a, b := randQ8(r, n, QActMax), randQ8(r, n, 128)
				got, want := make([]int8, n), make([]int8, n)
				QAddInto(got, a, b, ra, rb, relu)
				restore := forceGoQuant()
				QAddInto(want, a, b, ra, rb, relu)
				restore()
				if !bytes.Equal(i8bytes(got), i8bytes(want)) {
					t.Fatalf("n=%d ra=%v rb=%v relu=%v: avx2 %v, go %v", n, ra, rb, relu, got, want)
				}
				// In place, as a plan's residual join runs it.
				QAddInto(a, a, b, ra, rb, relu)
				if !bytes.Equal(i8bytes(a), i8bytes(want)) {
					t.Fatalf("n=%d ra=%v rb=%v relu=%v: in place %v, want %v", n, ra, rb, relu, a, want)
				}
			}
		}
	}
}

// TestQStoreTileMatchesGo holds the epilogue to storeRow for every row
// count and stretch width, with accumulators at the int32 extremes,
// epilogue constants that put values on halfway points, and constants that
// overflow to infinities and NaNs.
func TestQStoreTileMatchesGo(t *testing.T) {
	if !qForwardAVX2 {
		t.Skip("the int8 AVX2 kernels are not selected on this host")
	}
	r := rand.New(rand.NewSource(79))
	for iter := 0; iter < 400; iter++ {
		rows, n := 1+r.Intn(qMR), 1+r.Intn(qNR)
		lane := r.Intn(qNR - n + 1)
		qc := &QuantizedConv{comp: make([]int32, qMR), mult: make([]float32, qMR), add: make([]float32, qMR), convShape: convShape{relu: iter%2 == 0}}
		for o := 0; o < qMR; o++ {
			qc.comp[o] = int32(r.Intn(1<<16) - 1<<15)
			switch r.Intn(4) {
			case 0: // halfway points: mult 1/2 and odd accumulators
				qc.mult[o], qc.add[o] = 0.5, float32(r.Intn(9)-4)
			case 1:
				qc.mult[o], qc.add[o] = qFloat(r), qFloat(r)
			default:
				qc.mult[o], qc.add[o] = float32(r.Float64()*0.05), float32(r.NormFloat64()*20)
			}
		}
		cbuf := make([]int32, (qMR+1)*qNR)
		for i := range cbuf {
			switch r.Intn(8) {
			case 0:
				cbuf[i] = math.MaxInt32
			case 1:
				cbuf[i] = math.MinInt32
			default:
				cbuf[i] = int32(r.Intn(1<<13) - 1<<12)
			}
		}
		const stride = 40
		got, want := make([]int8, qMR*stride), make([]int8, qMR*stride)
		for i := range got {
			got[i], want[i] = int8(i), int8(i)
		}
		lo := float32(-QActMax)
		if qc.relu {
			lo = 0
		}
		j := &qconvCall{qc: qc}
		qstoreTile(&got[3], &cbuf[lane], &qc.comp[0], &qc.mult[0], &qc.add[0], stride, rows, n, lo)
		for row := 0; row < rows; row++ {
			j.storeRow(want[3+row*stride:3+row*stride+n], cbuf[row*qNR+lane:row*qNR+lane+n], row, float64(lo))
		}
		if !bytes.Equal(i8bytes(got), i8bytes(want)) {
			t.Fatalf("rows=%d n=%d lane=%d relu=%v:\navx2 %v\ngo   %v", rows, n, lane, qc.relu, got, want)
		}
	}
}

// qPackCase is one lowered convolution for the packer tests.
type qPackCase struct {
	n, c, h, w, k, stride, pad int
}

func (pc qPackCase) geom() (convGeom, bool) {
	oh, ow := ConvOut(pc.h, pc.k, pc.stride, pc.pad), ConvOut(pc.w, pc.k, pc.stride, pc.pad)
	return convGeom{n: pc.n, c: pc.c, h: pc.h, w: pc.w, kh: pc.k, kw: pc.k, stride: pc.stride,
		padY: pc.pad, padX: pc.pad, oh: oh, ow: ow}, oh > 0 && ow > 0
}

// qPackBoth packs every panel-aligned block [lo, hi) of the batch in, with
// packQPanels as selected and as its Go loop, into buffers prefilled with
// the same junk and a guard band past the block, and reports the first
// block on which the bytes differ.
func qPackBoth(t *testing.T, g *convGeom, in []int8, blocks int) {
	t.Helper()
	panels := (g.n*g.pixels() + qNR - 1) / qNR
	panel := (g.kdim() + 3) / 4 * qNR * 4
	masks := make([]int32, g.kh*g.kw)
	for b := 0; b < blocks; b++ {
		lo, hi := parallel.SplitRange(panels, blocks, b)
		if lo == hi {
			continue
		}
		size := (hi-lo)*panel + 64
		got, want := make([]uint8, size), make([]uint8, size)
		for i := range got {
			got[i], want[i] = uint8(i*7+3), uint8(i*7+3)
		}
		packQPanels(got, in, g, lo*qNR, hi*qNR, masks)
		restore := forceGoQuant()
		packQPanels(want, in, g, lo*qNR, hi*qNR, masks)
		restore()
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("%+v block [%d,%d) of %d panels: byte %d (panel %d, quad %d, lane %d) = %#x, go %#x",
				*g, lo, hi, panels, i, i/panel, i%panel/64, i%64/4, got[i], want[i])
		}
	}
}

func firstDiff(a, b []uint8) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func TestPackQPanelsMatchesGo(t *testing.T) {
	if !qForwardAVX2 {
		t.Skip("the int8 AVX2 kernels are not selected on this host")
	}
	r := rand.New(rand.NewSource(83))
	cases := []qPackCase{
		{1, 3, 5, 5, 1, 1, 0},     // one panel's run ends within 16 bytes of the input's end
		{3, 9, 5, 5, 3, 1, 1},     // panels straddle samples
		{2, 6, 10, 11, 3, 2, 1},   // stride-2 runs start mid-panel
		{2, 3, 9, 9, 1, 2, 0},     // stride-2 reads end within 32 bytes of the input's end
		{1, 3, 12, 12, 7, 2, 3},   // the stem's window, most taps in the padding
		{1, 64, 4, 4, 3, 1, 1},    // a deep 4×4 map: one run is a whole sample
		{8, 16, 7, 7, 3, 1, 1},    // 49-pixel samples in a batch of eight
		{2, 5, 17, 33, 3, 1, 1},   // runs across output rows
		{1, 33, 1, 1, 1, 1, 0},    // fully connected
		{2, 4, 6, 6, 3, 1, 2},     // output wider than input: runs stop at rows
		{1, 2, 40, 40, 3, 1, 0},   // no padding
		{3, 7, 13, 13, 7, 1, 3},   // 7×7 stride 1
		{1, 11, 8, 8, 3, 2, 1},    // k = 99: a quad of k padding
		{2, 130, 3, 3, 1, 1, 0},   // k = 130: two taps of k padding
		{1, 5, 100, 100, 7, 2, 3}, // the stock stem at the deployment size
	}
	for i := 0; i < 40; i++ {
		k := []int{1, 3, 7}[r.Intn(3)]
		cases = append(cases, qPackCase{1 + r.Intn(3), 1 + r.Intn(20), 1 + r.Intn(18), 1 + r.Intn(18), k, 1 + r.Intn(2), r.Intn(k/2 + 2)})
	}
	for _, pc := range cases {
		g, ok := pc.geom()
		if !ok {
			continue
		}
		in := randQ8(r, g.n*g.c*g.h*g.w, 128)
		for _, blocks := range []int{1, 2, 3, 7} {
			qPackBoth(t, &g, in, blocks)
		}
	}
}

func i8bytes(xs []int8) []byte {
	b := make([]byte, len(xs))
	for i, v := range xs {
		b[i] = byte(v)
	}
	return b
}

// qFuzzFloat reads the float32 bit pattern at word i of vals (cycling, and
// mixed with i so short inputs still vary), or a smooth value when vals is
// too short.
func qFuzzFloat(vals []byte, i int) float32 {
	if len(vals) < 4 {
		return float32(math.Sin(float64(i)) * 3)
	}
	k := (4 * i) % (len(vals) - 3)
	return math.Float32frombits(binary.LittleEndian.Uint32(vals[k:]) ^ uint32(i)*0x9e3779b9)
}

// FuzzQuantizedConv runs QuantizedConv.ForwardInto on shapes drawn from the
// fuzz bytes — batch 1 to 3, C and OC 1 to 24, H and W 1 to 20, kernel 1, 3
// or 7, stride 1 or 2, padding up to 3, ReLU on or off — with input, weight
// and bias bit patterns and both activation scales from the bytes too, so
// halfway points, NaN, ±Inf and out-of-range values all reach the
// quantizer and the epilogue. The output must equal qconvRef byte for
// byte at one worker and at five, and the AVX2 pack, epilogue, QuantizeInto
// and QAddInto must each equal their Go loops.
func FuzzQuantizedConv(f *testing.F) {
	f.Add([]byte{0, 4, 9, 9, 5, 1, 0, 1, 1, 0x3f, 0x80, 0, 0, 0x3d, 0x4c, 0xcc, 0xcd})
	f.Add([]byte{2, 8, 4, 4, 7, 0, 1, 1, 0, 0x7f, 0x80, 0, 0, 0xff, 0xc0, 0, 0})
	f.Add([]byte{1, 2, 19, 13, 3, 2, 1, 3, 1, 0x40, 0x20, 0, 0, 0x3f, 0, 0, 0})
	f.Add([]byte{0, 23, 1, 1, 23, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		n, c := 1+int(data[0])%3, 1+int(data[1])%24
		h, w, oc := 1+int(data[2])%20, 1+int(data[3])%20, 1+int(data[4])%24
		k := []int{1, 3, 7}[int(data[5])%3]
		stride, pad, relu := 1+int(data[6])%2, int(data[7])%4, data[8]&1 != 0
		vals := data[9:]
		if ConvOut(h, k, stride, pad) <= 0 || ConvOut(w, k, stride, pad) <= 0 {
			return
		}
		i := 0
		fill := func(dst []float32) {
			for j := range dst {
				dst[j] = qFuzzFloat(vals, i)
				i++
			}
		}
		x, weight, bias := make([]float32, n*c*h*w), New(oc, c, k, k), make([]float32, oc)
		fill(x)
		fill(weight.data)
		fill(bias)
		scales := make([]float32, 2)
		fill(scales)

		in, inGo := make([]int8, len(x)), make([]int8, len(x))
		QuantizeInto(in, x, scales[0])
		restore := forceGoQuant()
		QuantizeInto(inGo, x, scales[0])
		restore()
		if !bytes.Equal(i8bytes(in), i8bytes(inGo)) {
			t.Fatalf("QuantizeInto: avx2 %v, go %v", in, inGo)
		}

		qc := NewQuantizedConv(weight, bias, stride, pad, relu, scales[0], scales[1])
		want := qconvRef(qc, weight, in, n, h, w)
		oh, ow := qc.OutSize(h, w)
		got := make([]int8, n*oc*oh*ow)
		for _, workers := range []int{1, 5} {
			prev := parallel.DefaultWorkers
			parallel.DefaultWorkers = workers
			qc.ForwardInto(got, in, n, h, w)
			parallel.DefaultWorkers = prev
			if !bytes.Equal(i8bytes(got), i8bytes(want)) {
				t.Fatalf("%d workers: ForwardInto %v, reference %v", workers, got, want)
			}
		}
		restore = forceGoQuant()
		qc.ForwardInto(got, in, n, h, w)
		restore()
		if !bytes.Equal(i8bytes(got), i8bytes(want)) {
			t.Fatalf("Go loops: ForwardInto %v, reference %v", got, want)
		}

		// The residual join of a plan: the conv's output onto its input
		// where the shapes agree, else onto itself reversed.
		b := in
		if len(b) != len(got) {
			b = make([]int8, len(got))
			for j := range b {
				b[j] = got[len(got)-1-j]
			}
		}
		sum, sumGo := make([]int8, len(got)), make([]int8, len(got))
		QAddInto(sum, got, b, scales[0], scales[1], relu)
		restore = forceGoQuant()
		QAddInto(sumGo, got, b, scales[0], scales[1], relu)
		restore()
		if !bytes.Equal(i8bytes(sum), i8bytes(sumGo)) {
			t.Fatalf("QAddInto(ra=%v, rb=%v): avx2 %v, go %v", scales[0], scales[1], sum, sumGo)
		}
	})
}
