package tensor

import (
	"fmt"
	"slices"

	"drainnas/internal/parallel"
)

// MaxPool2DInto max-pools the (N, C, H, W) input into the caller-provided
// (N, C, OH, OW) output: padding taps are left out of the max, and a window
// wholly in the padding yields 0. It is the one max pool: training's
// MaxPool2d, fp32 plans and, through QMaxPool2DInto, int8 plans run its
// plane job. A steady-state forward allocates nothing.
func MaxPool2DInto(out, input *Tensor, kernel, stride, pad int) {
	n, c, h, w := dims4("MaxPool2DInto input", input)
	job := newMaxPoolJob("MaxPool2DInto", out.data, input.data, n*c, h, w, kernel, stride, pad)
	if on, ocn, oh, ow := dims4("MaxPool2DInto out", out); on != n || ocn != c || oh != job.oh || ow != job.ow {
		panic(fmt.Sprintf("tensor: MaxPool2DInto out shape %v, want [%d %d %d %d]", out.shape, n, c, job.oh, job.ow))
	}
	job.runPlanes(n * c)
}

// maxPoolJob carries a max pool's per-plane state, for float32 and int8
// planes alike, so the hot loop can be a method rather than a closure
// (closures handed to parallel.Map always heap-allocate; a method value
// only escapes on the parallel branch).
type maxPoolJob[T int8 | float32] struct {
	out, in             []T
	kernel, stride, pad int
	h, w, oh, ow        int
}

// newMaxPoolJob checks that in holds planes H×W planes and out their pooled
// OH×OW planes, and returns the job that pools them; op names the caller in
// the panic.
func newMaxPoolJob[T int8 | float32](op string, out, in []T, planes, h, w, kernel, stride, pad int) maxPoolJob[T] {
	oh, ow := ConvOut(h, kernel, stride, pad), ConvOut(w, kernel, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: %s produces empty output for input %dx%d k=%d s=%d p=%d", op, h, w, kernel, stride, pad))
	}
	if len(in) != planes*h*w || len(out) != planes*oh*ow {
		panic(fmt.Sprintf("tensor: %s buffer lengths %d/%d, want %d/%d", op, len(in), len(out), planes*h*w, planes*oh*ow))
	}
	return maxPoolJob[T]{out: out, in: in, kernel: kernel, stride: stride, pad: pad, h: h, w: w, oh: oh, ow: ow}
}

// runPlanes pools every plane, split across parallel.DefaultWorkers. As in
// convInto, the serial case calls the plane body directly instead of
// building a closure for parallel.Map, keeping the steady-state
// compiled-inference forward allocation-free.
func (j *maxPoolJob[T]) runPlanes(planes int) {
	if parallel.DefaultWorkers == 1 || planes == 1 {
		for p := 0; p < planes; p++ {
			j.run(p)
		}
		return
	}
	pj := *j
	parallel.Map(planes, 0, pj.run)
}

func (j *maxPoolJob[T]) run(p int) {
	maxPoolPlane(j.out[p*j.oh*j.ow:(p+1)*j.oh*j.ow], j.in[p*j.h*j.w:(p+1)*j.h*j.w],
		j.h, j.w, j.oh, j.ow, j.kernel, j.stride, j.pad)
}

// maxPoolPlane pools one H×W plane into its OH×OW output with
// MaxPool2DInto's semantics, for both element types.
//
// The window max is separable, and it is taken in two passes over
// independent lanes: for each output row, the column max over the window's
// rows at every input column the row needs, then for each output pixel the
// max of its window's columns. A window's max is the builtin max over its
// taps, which is a max over a set — NaN when any tap is NaN, and of equal
// zeros +0 when any is +0, in whatever order — so the passes return bit for
// bit what a tap-by-tap chain returns. The chain was the cost: the float32
// builtin is a seven-instruction sequence, and each output of a 3×3 window
// waited on eight of them in a row. In the passes every max runs beside
// its neighbours', and with AVX2 eight float32 lanes go at once.
func maxPoolPlane[T int8 | float32](dst, plane []T, h, w, oh, ow, kernel, stride, pad int) {
	// Output columns go in chunks whose input columns fit buf; a window
	// wider than the chunk budget (a degenerate geometry) takes a buffer of
	// its own. The slack covers the row pass's read past its last value.
	var buf [poolChunk + 16]T
	chunk, col := (poolChunk-kernel)/stride+1, buf[:]
	if kernel > poolChunk {
		chunk, col = 1, make([]T, kernel+16)
	}
	oxLo, oxHi := poolInterior(w, ow, kernel, stride, pad)
	for oy := 0; oy < oh; oy++ {
		row := dst[oy*ow : (oy+1)*ow]
		ylo, yhi := poolSpan(oy, h, kernel, stride, pad)
		if ylo >= yhi {
			clear(row)
			continue
		}
		for a := 0; a < ow; a += chunk {
			b := min(a+chunk, ow)
			xlo, _ := poolSpan(a, w, kernel, stride, pad)
			_, xhi := poolSpan(b-1, w, kernel, stride, pad)
			if xlo >= xhi {
				clear(row[a:b])
				continue
			}
			poolColumns(col[:xhi-xlo], plane[ylo*w+xlo:], w, yhi-ylo)
			// Outputs [ia, ib) have their whole window inside the row.
			ia := min(max(oxLo, a), b)
			ib := min(max(oxHi, ia), b)
			poolEdge(row, col, a, ia, xlo, w, kernel, stride, pad)
			if ia < ib {
				poolRow(row[ia:ib], col[ia*stride-pad-xlo:], kernel, stride)
			}
			poolEdge(row, col, ib, b, xlo, w, kernel, stride, pad)
		}
	}
}

// poolEdge pools outputs [from, to) of a row, windows that reach into the
// padding, from the folded columns (col[0] is input column xlo).
func poolEdge[T int8 | float32](row, col []T, from, to, xlo, w, kernel, stride, pad int) {
	for ox := from; ox < to; ox++ {
		lo, hi := poolSpan(ox, w, kernel, stride, pad)
		row[ox] = 0
		if lo < hi {
			row[ox] = slices.Max(col[lo-xlo : hi-xlo])
		}
	}
}

// poolChunk is the most input columns maxPoolPlane folds at once.
const poolChunk = 256

// poolColumns is the column pass: m[x] = max over r < rows of src[r·w + x].
func poolColumns[T int8 | float32](m, src []T, w, rows int) {
	i := 0
	if forwardAVX2 && len(m) >= 8 {
		switch d := any(&m[0]).(type) {
		case *float32:
			i = len(m) &^ 7
			poolColsF32(d, any(&src[0]).(*float32), i, rows, w)
		case *int8:
			if len(m) >= 32 {
				poolColsI8(d, any(&src[0]).(*int8), len(m), rows, w)
				return
			}
		}
	}
	if i == len(m) {
		return
	}
	m = m[i:]
	copy(m, src[i:])
	for r := 1; r < rows; r++ {
		row := src[r*w+i:]
		row = row[:len(m)]
		for x, v := range row {
			m[x] = max(m[x], v)
		}
	}
}

// poolRow is the row pass over outputs whose windows lie wholly inside the
// folded columns: dst[i] = max over kx < kernel of m[i·stride + kx]. m
// runs at least one value past the last window (the AVX2 row passes'
// over-read).
func poolRow[T int8 | float32](dst, m []T, kernel, stride int) {
	i := 0
	if forwardAVX2 && stride <= 2 && len(dst) >= 8 {
		switch d := any(&dst[0]).(type) {
		case *float32:
			i = len(dst) &^ 7
			poolRowF32(d, any(&m[0]).(*float32), i, kernel, stride)
		case *int8:
			if len(dst) >= 16 {
				poolRowI8(d, any(&m[0]).(*int8), len(dst), kernel, stride)
				return
			}
		}
	}
	switch kernel {
	case 2:
		for ; i < len(dst); i++ {
			win := m[i*stride : i*stride+2]
			dst[i] = max(win[0], win[1])
		}
	case 3:
		for ; i < len(dst); i++ {
			win := m[i*stride : i*stride+3]
			dst[i] = max(win[0], win[1], win[2])
		}
	default:
		for ; i < len(dst); i++ {
			dst[i] = slices.Max(m[i*stride : i*stride+kernel])
		}
	}
}

// poolInterior returns the output positions [lo, hi) along one axis whose
// window lies wholly inside the input: 0 ≤ o·stride − pad and
// o·stride − pad + kernel ≤ size.
func poolInterior(size, out, kernel, stride, pad int) (lo, hi int) {
	lo = (pad + stride - 1) / stride
	if size+pad >= kernel {
		hi = (size+pad-kernel)/stride + 1
	}
	if hi > out {
		hi = out
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// poolSpan returns the input positions [lo, hi) that output position o's
// window covers along an axis of the given size, padding left out; lo ≥ hi
// when the window lies wholly in the padding.
func poolSpan(o, size, kernel, stride, pad int) (lo, hi int) {
	lo = o*stride - pad
	return max(lo, 0), min(lo+kernel, size)
}

// MaxPool2DBackward returns the input gradient of the pool that
// MaxPool2DInto took of input into output with the same kernel, stride and
// padding. Each output's gradient goes to the first tap of its window, in
// row-major order, that equals the pooled value (a NaN output's to the first
// NaN tap). Without NaN that is the tap a scan for the first strict maximum
// picks. A window wholly in the padding pooled to a constant 0, and its
// gradient goes nowhere.
func MaxPool2DBackward(gradOut, input, output *Tensor, kernel, stride, pad int) *Tensor {
	n, c, h, w := dims4("MaxPool2DBackward input", input)
	on, ocn, oh, ow := dims4("MaxPool2DBackward output", output)
	if on != n || ocn != c || oh != ConvOut(h, kernel, stride, pad) || ow != ConvOut(w, kernel, stride, pad) {
		panic(fmt.Sprintf("tensor: MaxPool2DBackward output shape %v does not pool input %v (k=%d s=%d p=%d)", output.shape, input.shape, kernel, stride, pad))
	}
	binaryCheck("MaxPool2DBackward", gradOut, output)
	gradIn := New(n, c, h, w)
	parallel.Map(n*c, 0, func(p int) {
		plane := input.data[p*h*w : (p+1)*h*w]
		pooled := output.data[p*oh*ow : (p+1)*oh*ow]
		gsrc := gradOut.data[p*oh*ow : (p+1)*oh*ow]
		gdst := gradIn.data[p*h*w : (p+1)*h*w]
		for i, v := range pooled {
			ylo, yhi := poolSpan(i/ow, h, kernel, stride, pad)
			xlo, xhi := poolSpan(i%ow, w, kernel, stride, pad)
		taps:
			for y := ylo; y < yhi; y++ {
				for x := xlo; x < xhi; x++ {
					// With a NaN output no tap equals it, and only NaN taps
					// are unequal to themselves.
					if t := plane[y*w+x]; t == v || t != t {
						gdst[y*w+x] += gsrc[i]
						break taps
					}
				}
			}
		}
	})
	return gradIn
}

// GlobalAvgPool2DInto averages each (H, W) plane of input into the
// caller-provided (N, C) output: ResNet's terminal adaptive average pooling
// with output size 1×1, for training and the compiled plans alike.
func GlobalAvgPool2DInto(out, input *Tensor) {
	n, c, h, w := dims4("GlobalAvgPool2DInto input", input)
	if out.NDim() != 2 || out.shape[0] != n || out.shape[1] != c {
		panic(fmt.Sprintf("tensor: GlobalAvgPool2DInto out shape %v, want [%d %d]", out.shape, n, c))
	}
	inv := 1.0 / float64(h*w)
	if nc := n * c; serialRange(nc) {
		globalAvgRange(out.data, input.data, h*w, inv, 0, nc)
	} else {
		forEach(nc, func(lo, hi int) { globalAvgRange(out.data, input.data, h*w, inv, lo, hi) })
	}
}

func globalAvgRange(dst, src []float32, planeSize int, inv float64, lo, hi int) {
	for p := lo; p < hi; p++ {
		plane := src[p*planeSize : (p+1)*planeSize]
		s := 0.0
		for _, v := range plane {
			s += float64(v)
		}
		dst[p] = float32(s * inv)
	}
}

// GlobalAvgPool2DBackward spreads each (N, C) gradient uniformly over the
// corresponding H×W plane.
func GlobalAvgPool2DBackward(gradOut *Tensor, inShape []int) *Tensor {
	n, c, h, w := inShape[0], inShape[1], inShape[2], inShape[3]
	if gradOut.NDim() != 2 || gradOut.shape[0] != n || gradOut.shape[1] != c {
		panic(fmt.Sprintf("tensor: GlobalAvgPool2DBackward gradOut shape %v, want [%d %d]", gradOut.shape, n, c))
	}
	gradIn := New(n, c, h, w)
	inv := float32(1.0 / float64(h*w))
	forEach(n*c, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			g := gradOut.data[p] * inv
			plane := gradIn.data[p*h*w : (p+1)*h*w]
			for i := range plane {
				plane[i] = g
			}
		}
	})
	return gradIn
}
