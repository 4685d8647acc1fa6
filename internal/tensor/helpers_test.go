package tensor

// The helpers below are used only by this package's tests: reference
// operations the tests check the library against, and conveniences for
// building and inspecting their fixtures.

import (
	"fmt"
	"math"

	"drainnas/internal/parallel"
)

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	binaryCheck("Sub", a, b)
	out := New(a.shape...)
	forEach(len(a.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = a.data[i] - b.data[i]
		}
	})
	return out
}

// Scale returns s * a.
func Scale(a *Tensor, s float32) *Tensor {
	out := New(a.shape...)
	forEach(len(a.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = a.data[i] * s
		}
	})
	return out
}

// AxpyInPlace computes a += alpha*b in place (the BLAS axpy) and returns a.
func AxpyInPlace(a *Tensor, alpha float32, b *Tensor) *Tensor {
	binaryCheck("AxpyInPlace", a, b)
	forEach(len(a.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a.data[i] += alpha * b.data[i]
		}
	})
	return a
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float32 {
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on an empty tensor.
func (t *Tensor) Min() float32 {
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Fill sets all elements to v in place.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// CopyFrom copies o's data into t. Shapes must match exactly.
func (t *Tensor) CopyFrom(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, o.shape))
	}
	copy(t.data, o.data)
}

// HasNaN reports whether any element is NaN or infinite, a cheap sanity
// check after a training step.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
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

// DequantizeInto reconstructs dst[i] = scale·src[i]. Lengths must match.
func DequantizeInto(dst []float32, src []int8, scale float32) {
	if len(dst) != len(src) {
		panic("tensor: DequantizeInto length mismatch")
	}
	scale = sanitizeScale(scale)
	for i, q := range src {
		dst[i] = scale * float32(q)
	}
}

// Split derives an independent generator; useful for giving each parallel
// worker or each dataset region its own stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xD1B54A32D192ED03)
}
