// Package tensor implements dense float32 tensors with the operations a CNN
// training loop needs: elementwise arithmetic, parallel matrix multiplication,
// 2-D convolution lowered to one GEMM per layer with its columns packed
// straight from the images (forward and backward; no im2col matrix is built),
// pooling, padding, and reductions.
//
// Tensors are row-major and contiguous. The package favors explicit shapes
// and loud failures: shape mismatches panic, because inside a training loop
// they are always programming errors, never recoverable conditions.
package tensor

import (
	"fmt"
	"math"

	"drainnas/internal/parallel"
)

// Tensor is a dense, contiguous, row-major float32 array with a shape.
type Tensor struct {
	shape []int
	data  []float32
}

// New allocates a zero-filled tensor with the given shape. A zero-dimensional
// shape produces a scalar tensor with one element.
func New(shape ...int) *Tensor {
	n := checkedNumel(shape)
	return &Tensor{shape: cloneShape(shape), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkedNumel(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (numel %d)", len(data), shape, n))
	}
	return &Tensor{shape: cloneShape(shape), data: data}
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated by the caller.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NDim returns the number of dimensions.
func (t *Tensor) NDim() int { return len(t.shape) }

// Numel returns the total number of elements.
func (t *Tensor) Numel() int { return len(t.data) }

// Data returns the backing slice. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: cloneShape(t.shape), data: make([]float32, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Reshape returns a view with a new shape sharing the same backing data.
// The element count must be preserved. One dimension may be -1, in which
// case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = cloneShape(shape)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
			continue
		}
		if d <= 0 {
			panic(fmt.Sprintf("tensor: Reshape invalid dimension %d in %v", d, shape))
		}
		known *= d
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / known
		known *= shape[infer]
	}
	if known != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape %v (numel %d) to %v (numel %d)", t.shape, len(t.data), shape, known))
	}
	return &Tensor{shape: shape, data: t.data}
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set writes v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus a few leading values),
// suitable for debugging, not for data export.
func (t *Tensor) String() string {
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.data[:n])
}

// Zero resets all elements to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
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

func cloneShape(shape []int) []int {
	s := make([]int, len(shape))
	copy(s, shape)
	return s
}

func checkedNumel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: invalid shape %v", shape))
		}
		if n > (1<<31)/d {
			panic(fmt.Sprintf("tensor: shape %v overflows element count", shape))
		}
		n *= d
	}
	return n
}

// parallelThreshold is the element count below which elementwise ops run
// serially; goroutine fan-out costs more than it saves for tiny tensors.
const parallelThreshold = 1 << 14

func forEach(n int, body func(lo, hi int)) {
	if n < parallelThreshold {
		body(0, n)
		return
	}
	parallel.ForChunked(n, 0, body)
}

// serialRange reports whether an n-element elementwise pass should run as a
// plain loop: below the parallel threshold, or with parallelism pinned to 1.
// Callers use it to bypass forEach entirely — constructing the closure that
// forEach takes heap-allocates, which the zero-alloc inference path avoids.
func serialRange(n int) bool {
	return n < parallelThreshold || parallel.DefaultWorkers == 1
}
