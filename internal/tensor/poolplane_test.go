package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"drainnas/internal/parallel"
)

// maxPoolPlaneRef is the tap-by-tap pool the separable maxPoolPlane
// replaced, kept as its oracle: interior windows read with no bounds tests
// and chain the builtin max over their taps in row-major order, frame
// windows go through maxPoolBorderRef.
func maxPoolPlaneRef[T int8 | float32](dst, plane []T, h, w, oh, ow, kernel, stride, pad int) {
	oyLo, oyHi := poolInterior(h, oh, kernel, stride, pad)
	oxLo, oxHi := poolInterior(w, ow, kernel, stride, pad)
	for oy := 0; oy < oh; oy++ {
		row := dst[oy*ow : (oy+1)*ow]
		if oy < oyLo || oy >= oyHi {
			for ox := range row {
				row[ox] = maxPoolBorderRef(plane, h, w, oy, ox, kernel, stride, pad)
			}
			continue
		}
		for ox := 0; ox < oxLo; ox++ {
			row[ox] = maxPoolBorderRef(plane, h, w, oy, ox, kernel, stride, pad)
		}
		top := (oy*stride-pad)*w - pad
		for ox := oxLo; ox < oxHi; ox++ {
			win := plane[top+ox*stride:]
			best := win[0]
			for ky := 0; ky < kernel; ky++ {
				for _, v := range win[ky*w : ky*w+kernel] {
					best = max(best, v)
				}
			}
			row[ox] = best
		}
		for ox := oxHi; ox < ow; ox++ {
			row[ox] = maxPoolBorderRef(plane, h, w, oy, ox, kernel, stride, pad)
		}
	}
}

// maxPoolBorderRef pools one output pixel whose window reaches into the
// padding, testing every tap; a window with no valid tap yields 0.
func maxPoolBorderRef[T int8 | float32](plane []T, h, w, oy, ox, kernel, stride, pad int) T {
	var best T
	found := false
	for ky := 0; ky < kernel; ky++ {
		sy := oy*stride - pad + ky
		if sy < 0 || sy >= h {
			continue
		}
		for kx := 0; kx < kernel; kx++ {
			sx := ox*stride - pad + kx
			if sx < 0 || sx >= w {
				continue
			}
			if v := plane[sy*w+sx]; found {
				best = max(best, v)
			} else {
				best, found = v, true
			}
		}
	}
	return best
}

// samePoolBits reports whether two pooled values are the same bits, or both
// NaN: which NaN a max returns is not part of its contract.
func samePoolBits[T int8 | float32](a, b T) bool {
	if fa, ok := any(a).(float32); ok {
		fb := any(b).(float32)
		return math.Float32bits(fa) == math.Float32bits(fb) || (fa != fa && fb != fb)
	}
	return a == b
}

// checkPoolPlane pools plane with maxPoolPlane and with the reference and
// fails on the first output whose bits differ.
func checkPoolPlane[T int8 | float32](t *testing.T, plane []T, h, w, kernel, stride, pad int) {
	t.Helper()
	oh, ow := ConvOut(h, kernel, stride, pad), ConvOut(w, kernel, stride, pad)
	if oh <= 0 || ow <= 0 {
		return
	}
	want := make([]T, oh*ow)
	maxPoolPlaneRef(want, plane, h, w, oh, ow, kernel, stride, pad)
	forwardPaths(func(avx2 bool) {
		got := make([]T, oh*ow)
		for i := range got {
			got[i] = 7 // stale output must be overwritten
		}
		maxPoolPlane(got, plane, h, w, oh, ow, kernel, stride, pad)
		for i := range want {
			if !samePoolBits(got[i], want[i]) {
				t.Fatalf("%T %dx%d k=%d s=%d p=%d avx2=%v: out[%d] (%d,%d) = %v, reference %v",
					got[i], h, w, kernel, stride, pad, avx2, i, i/ow, i%ow, got[i], want[i])
			}
		}
	})
}

// saltedPlane returns a random float plane in which about one value in
// eight is a NaN, ±0, ±Inf or a subnormal of either sign.
func saltedPlane(r *rand.Rand, n int) []float32 {
	specials := []float32{
		float32(math.NaN()), math.Float32frombits(0xFFC00001), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(1), math.Float32frombits(0x80000001),
	}
	p := make([]float32, n)
	for i := range p {
		if r.Intn(8) == 0 {
			p[i] = specials[r.Intn(len(specials))]
		} else {
			p[i] = float32(r.NormFloat64())
		}
	}
	return p
}

// TestMaxPoolPlaneMatchesReference holds the separable pool to the
// tap-by-tap one bit for bit (NaN for NaN), on both element types, for
// PaperSpace's four pools (2×2 and 3×3 windows, stride 1 and 2, padding 0
// and 1) and around them every geometry the plan compiler admits at small
// sizes: windows wider than their stride and narrower, padding from none to
// past the kernel (windows wholly in the padding), odd and even planes.
func TestMaxPoolPlaneMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	sizes := [][2]int{{50, 50}, {25, 25}, {1, 1}, {2, 3}, {7, 8}, {9, 6}, {16, 17}, {100, 100}}
	for _, hw := range sizes {
		h, w := hw[0], hw[1]
		fp := saltedPlane(r, h*w)
		q := make([]int8, h*w)
		for i := range q {
			q[i] = int8(r.Intn(256) - 128)
		}
		for kernel := 1; kernel <= 5; kernel++ {
			for stride := 1; stride <= 3; stride++ {
				for pad := 0; pad <= kernel+1; pad++ {
					checkPoolPlane(t, fp, h, w, kernel, stride, pad)
					checkPoolPlane(t, q, h, w, kernel, stride, pad)
				}
			}
		}
	}
	// A wide plane: windows past the pool's stack buffer chunk the row.
	fp := saltedPlane(r, 3*700)
	for _, k := range [][3]int{{3, 2, 1}, {3, 1, 1}, {2, 2, 0}, {300, 1, 0}} {
		checkPoolPlane(t, fp, 3, 700, k[0], k[1], k[2])
	}
}

// maxPoolBackwardRef scatters one plane's pooled gradient through a
// tap-by-tap argmax: each window's first valid tap, replaced by every later
// tap that is greater (NaN ranking above every number), so of equal taps
// the first in row-major order wins. A window with no valid tap routes
// nowhere.
func maxPoolBackwardRef(gdst, gsrc, plane []float32, h, w, oh, ow, kernel, stride, pad int) {
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			best := -1
			for ky := 0; ky < kernel; ky++ {
				sy := oy*stride - pad + ky
				for kx := 0; kx < kernel && sy >= 0 && sy < h; kx++ {
					sx := ox*stride - pad + kx
					if sx < 0 || sx >= w {
						continue
					}
					v := plane[sy*w+sx]
					if best < 0 || v > plane[best] || (v != v && plane[best] == plane[best]) {
						best = sy*w + sx
					}
				}
			}
			if best >= 0 {
				gdst[best] += gsrc[oy*ow+ox]
			}
		}
	}
}

// checkPoolBackward pools plane through MaxPool2DInto, sends the gradients
// 1, 2, 3, … back through MaxPool2DBackward, and fails on the first input
// gradient that differs from maxPoolBackwardRef's. The sums are integers
// far below 2^24, so they are exact in any order.
func checkPoolBackward(t *testing.T, plane []float32, h, w, kernel, stride, pad int) {
	t.Helper()
	oh, ow := ConvOut(h, kernel, stride, pad), ConvOut(w, kernel, stride, pad)
	if oh <= 0 || ow <= 0 {
		return
	}
	x := FromSlice(plane, 1, 1, h, w)
	gout := New(1, 1, oh, ow)
	for i := range gout.data {
		gout.data[i] = float32(i + 1)
	}
	got := MaxPool2DBackward(gout, x, maxPool(x, kernel, stride, pad), kernel, stride, pad)
	want := make([]float32, h*w)
	maxPoolBackwardRef(want, gout.data, plane, h, w, oh, ow, kernel, stride, pad)
	for i, v := range want {
		if got.data[i] != v {
			t.Fatalf("%dx%d k=%d s=%d p=%d: gradIn[%d] (%d,%d) = %v, argmax reference %v",
				h, w, kernel, stride, pad, i, i/w, i%w, got.data[i], v)
		}
	}
}

// FuzzMaxPoolPlane decodes a plane size, window, stride, padding (0 to
// kernel+1: a container's attributes are unsigned) and raw float32 and int8
// bit patterns from the fuzz bytes, and holds maxPoolPlane to the
// tap-by-tap reference on both; MaxPool2DBackward to the argmax reference
// on the float plane and on its ReLU, whose zeros tie; and QMaxPool2DInto,
// over three planes, to the reference at one worker and at five.
func FuzzMaxPoolPlane(f *testing.F) {
	f.Add([]byte{50, 50, 3, 2, 1})
	f.Add([]byte{7, 8, 2, 1, 0, 0xff, 0xc0, 0, 0, 0x80, 0, 0, 0})
	f.Add([]byte{3, 4, 5, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 1, 1, 0, 3, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 58, 3, 1, 1, 0x80, 0x7f, 0xff, 0, 1, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		h, w := int(data[0])%64+1, int(data[1])%64+1
		kernel, stride := int(data[2])%7+1, int(data[3])%4+1
		pad := int(data[4]) % (kernel + 2)
		bits := data[5:]
		fp := make([]float32, h*w)
		q := make([]int8, h*w)
		for i := range fp {
			if j := 4 * i; j+4 <= len(bits) {
				fp[i] = math.Float32frombits(uint32(bits[j]) | uint32(bits[j+1])<<8 | uint32(bits[j+2])<<16 | uint32(bits[j+3])<<24)
			} else {
				fp[i] = float32(i%13) - 6
			}
			if i < len(bits) {
				q[i] = int8(bits[i])
			} else {
				q[i] = int8(i%251 - 125)
			}
		}
		checkPoolPlane(t, fp, h, w, kernel, stride, pad)
		checkPoolPlane(t, q, h, w, kernel, stride, pad)

		checkPoolBackward(t, fp, h, w, kernel, stride, pad)
		relu := New(h * w)
		ReLUInto(relu, FromSlice(fp, h*w))
		checkPoolBackward(t, relu.data, h, w, kernel, stride, pad)

		oh, ow := ConvOut(h, kernel, stride, pad), ConvOut(w, kernel, stride, pad)
		if oh <= 0 || ow <= 0 {
			return
		}
		// The fuzzed plane, a plane of -128 and the fuzzed plane reversed.
		planes := make([]int8, 3*h*w)
		for i, v := range q {
			planes[i], planes[h*w+i], planes[3*h*w-1-i] = v, -128, v
		}
		want := make([]int8, 3*oh*ow)
		for p := 0; p < 3; p++ {
			maxPoolPlaneRef(want[p*oh*ow:(p+1)*oh*ow], planes[p*h*w:(p+1)*h*w], h, w, oh, ow, kernel, stride, pad)
		}
		prev := parallel.DefaultWorkers
		defer func() { parallel.DefaultWorkers = prev }()
		for _, workers := range []int{1, 5} {
			parallel.DefaultWorkers = workers
			got := make([]int8, len(want))
			for i := range got {
				got[i] = 7
			}
			QMaxPool2DInto(got, planes, 1, 3, h, w, kernel, stride, pad)
			if !slices.Equal(got, want) {
				t.Fatalf("%dx%d k=%d s=%d p=%d workers=%d: QMaxPool2DInto %v, reference %v", h, w, kernel, stride, pad, workers, got, want)
			}
		}
	})
}

// BenchmarkMaxPoolPlane is front32's stem pool — 32 planes of 50×50 to
// 25×25 through a 3×3 window at stride 2, padding 1 — as a compiled plan
// runs it, at batch 1 and 8, on float32 (MaxPool2DInto) and on int8
// (QMaxPool2DInto).
func BenchmarkMaxPoolPlane(b *testing.B) {
	const c, side, k, s, p = 32, 50, 3, 2, 1
	out := ConvOut(side, k, s, p)
	for _, batch := range []int{1, 8} {
		x := RandNormal(NewRNG(7), 1, batch, c, side, side)
		b.Run(fmt.Sprintf("fp32/batch%d", batch), func(b *testing.B) {
			dst := New(batch, c, out, out)
			for i := 0; i < b.N; i++ {
				MaxPool2DInto(dst, x, k, s, p)
			}
		})
		b.Run(fmt.Sprintf("int8/batch%d", batch), func(b *testing.B) {
			q := make([]int8, x.Numel())
			QuantizeInto(q, x.Data(), 0.05)
			dst := make([]int8, batch*c*out*out)
			for i := 0; i < b.N; i++ {
				QMaxPool2DInto(dst, q, batch, c, side, side, k, s, p)
			}
		})
	}
}
