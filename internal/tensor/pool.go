package tensor

import (
	"fmt"

	"drainnas/internal/parallel"
)

// MaxPool2D applies max pooling over (N, C, H, W) input and returns the
// pooled output together with the flat argmax index (into the per-plane H*W
// space) of each output element, which the backward pass needs.
func MaxPool2D(input *Tensor, kernel, stride, pad int) (*Tensor, []int32) {
	n, c, h, w := dims4("MaxPool2D input", input)
	oh := ConvOut(h, kernel, stride, pad)
	ow := ConvOut(w, kernel, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: MaxPool2D produces empty output for input %dx%d k=%d s=%d p=%d", h, w, kernel, stride, pad))
	}
	out := New(n, c, oh, ow)
	argmax := make([]int32, n*c*oh*ow)
	parallel.Map(n*c, 0, func(p int) {
		plane := input.data[p*h*w : (p+1)*h*w]
		dst := out.data[p*oh*ow : (p+1)*oh*ow]
		arg := argmax[p*oh*ow : (p+1)*oh*ow]
		i := 0
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(0)
				bestIdx := int32(-1)
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
						v := plane[sy*w+sx]
						if bestIdx < 0 || v > best {
							best = v
							bestIdx = int32(sy*w + sx)
						}
					}
				}
				// A window fully inside padding (possible only with extreme
				// parameters) contributes zero.
				if bestIdx < 0 {
					best = 0
					bestIdx = 0
				}
				dst[i] = best
				arg[i] = bestIdx
				i++
			}
		}
	})
	return out, argmax
}

// MaxPool2DInto is the inference-path variant of MaxPool2D: it pools into a
// caller-provided (N, C, OH, OW) output and skips the argmax bookkeeping
// only the backward pass needs, so a steady-state forward allocates nothing.
func MaxPool2DInto(out, input *Tensor, kernel, stride, pad int) {
	n, c, h, w := dims4("MaxPool2DInto input", input)
	on, ocn, oh, ow := dims4("MaxPool2DInto out", out)
	eh := ConvOut(h, kernel, stride, pad)
	ew := ConvOut(w, kernel, stride, pad)
	if eh <= 0 || ew <= 0 {
		panic(fmt.Sprintf("tensor: MaxPool2DInto produces empty output for input %dx%d k=%d s=%d p=%d", h, w, kernel, stride, pad))
	}
	if on != n || ocn != c || oh != eh || ow != ew {
		panic(fmt.Sprintf("tensor: MaxPool2DInto out shape %v, want [%d %d %d %d]", out.shape, n, c, eh, ew))
	}
	// As in convInto: the serial case calls the plane body directly instead
	// of building a closure for parallel.Map, keeping the steady-state
	// compiled-inference forward allocation-free.
	job := maxPoolJob{out: out, input: input, kernel: kernel, stride: stride, pad: pad, h: h, w: w, oh: oh, ow: ow}
	if parallel.DefaultWorkers == 1 || n*c == 1 {
		for p := 0; p < n*c; p++ {
			job.run(p)
		}
	} else {
		pjob := job
		parallel.Map(n*c, 0, pjob.run)
	}
}

// maxPoolJob carries MaxPool2DInto's per-plane state so the hot loop can be
// a method rather than a closure (closures handed to parallel.Map always
// heap-allocate; a method value only escapes on the parallel branch).
type maxPoolJob struct {
	out, input          *Tensor
	kernel, stride, pad int
	h, w, oh, ow        int
}

func (j *maxPoolJob) run(p int) {
	maxPoolPlane(j.out.data[p*j.oh*j.ow:(p+1)*j.oh*j.ow], j.input.data[p*j.h*j.w:(p+1)*j.h*j.w],
		j.h, j.w, j.oh, j.ow, j.kernel, j.stride, j.pad)
}

// maxPoolPlane pools one H×W plane into its OH×OW output with MaxPool2D's
// semantics — padding taps are left out of the max, a window with no valid
// tap yields 0 — for both element types of the inference path. Output
// pixels whose window lies wholly inside the plane (all but a frame of
// ⌈pad/stride⌉ or so) read it with no bounds tests; the frame keeps the
// tap-by-tap loop. The running maximum is the max builtin, not a compare and
// branch: on activations the branch is a coin toss. (On the two inputs where
// the builtin and MaxPool2D's v > best disagree, it returns NaN for a window
// holding one and +0 for a window of mixed zeros.)
func maxPoolPlane[T int8 | float32](dst, plane []T, h, w, oh, ow, kernel, stride, pad int) {
	oyLo, oyHi := poolInterior(h, oh, kernel, stride, pad)
	oxLo, oxHi := poolInterior(w, ow, kernel, stride, pad)
	for oy := 0; oy < oh; oy++ {
		row := dst[oy*ow : (oy+1)*ow]
		if oy < oyLo || oy >= oyHi {
			for ox := range row {
				row[ox] = maxPoolBorder(plane, h, w, oy, ox, kernel, stride, pad)
			}
			continue
		}
		for ox := 0; ox < oxLo; ox++ {
			row[ox] = maxPoolBorder(plane, h, w, oy, ox, kernel, stride, pad)
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
			row[ox] = maxPoolBorder(plane, h, w, oy, ox, kernel, stride, pad)
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

// maxPoolBorder pools one output pixel whose window reaches into the
// padding, testing every tap.
func maxPoolBorder[T int8 | float32](plane []T, h, w, oy, ox, kernel, stride, pad int) T {
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

// MaxPool2DBackward routes each output gradient to the input position that
// produced the max, as recorded in argmax by MaxPool2D.
func MaxPool2DBackward(gradOut *Tensor, argmax []int32, inShape []int) *Tensor {
	n, c := inShape[0], inShape[1]
	h, w := inShape[2], inShape[3]
	_, _, oh, ow := dims4("MaxPool2DBackward gradOut", gradOut)
	gradIn := New(n, c, h, w)
	parallel.Map(n*c, 0, func(p int) {
		gsrc := gradOut.data[p*oh*ow : (p+1)*oh*ow]
		arg := argmax[p*oh*ow : (p+1)*oh*ow]
		gdst := gradIn.data[p*h*w : (p+1)*h*w]
		for i, g := range gsrc {
			gdst[arg[i]] += g
		}
	})
	return gradIn
}

// GlobalAvgPool2D averages each (H, W) plane of an (N, C, H, W) tensor,
// returning (N, C). This is ResNet's terminal adaptive average pooling with
// output size 1×1.
func GlobalAvgPool2D(input *Tensor) *Tensor {
	n, c, h, w := dims4("GlobalAvgPool2D input", input)
	out := New(n, c)
	inv := 1.0 / float64(h*w)
	forEach(n*c, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			plane := input.data[p*h*w : (p+1)*h*w]
			s := 0.0
			for _, v := range plane {
				s += float64(v)
			}
			out.data[p] = float32(s * inv)
		}
	})
	return out
}

// GlobalAvgPool2DInto averages each (H, W) plane of input into the
// caller-provided (N, C) output — the allocation-free variant of
// GlobalAvgPool2D for compiled inference plans.
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

// AvgPool2D applies average pooling (count includes padding positions, the
// count_include_pad=false convention: only valid taps are averaged).
func AvgPool2D(input *Tensor, kernel, stride, pad int) *Tensor {
	n, c, h, w := dims4("AvgPool2D input", input)
	oh := ConvOut(h, kernel, stride, pad)
	ow := ConvOut(w, kernel, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: AvgPool2D produces empty output for input %dx%d k=%d s=%d p=%d", h, w, kernel, stride, pad))
	}
	out := New(n, c, oh, ow)
	parallel.Map(n*c, 0, func(p int) {
		plane := input.data[p*h*w : (p+1)*h*w]
		dst := out.data[p*oh*ow : (p+1)*oh*ow]
		i := 0
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := float32(0)
				cnt := 0
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
						sum += plane[sy*w+sx]
						cnt++
					}
				}
				if cnt > 0 {
					dst[i] = sum / float32(cnt)
				}
				i++
			}
		}
	})
	return out
}
