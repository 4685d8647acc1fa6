package tensor

import (
	"fmt"
	"math"
)

// binaryCheck panics unless a and b share a shape.
func binaryCheck(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// AddInto writes a + b into dst elementwise. dst may alias a or b; all
// three must share a shape.
func AddInto(dst, a, b *Tensor) {
	binaryCheck("AddInto", a, b)
	binaryCheck("AddInto dst", dst, a)
	// The serial case calls the range body directly: a closure handed to
	// forEach would heap-allocate per call, which the compiled-plan steady
	// state promises not to do. Same pattern in the other *Into ops.
	if n := len(a.data); serialRange(n) {
		addRange(dst.data, a.data, b.data, 0, n)
	} else {
		forEach(n, func(lo, hi int) { addRange(dst.data, a.data, b.data, lo, hi) })
	}
}

func addRange(dst, a, b []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = a[i] + b[i]
	}
}

// AddReLUInto writes max(a + b, 0) into dst elementwise — a residual
// join and its ReLU in one pass. dst may alias a or b. Where the sum is −0
// or NaN it stays so; dst > 0 exactly where a + b > 0.
func AddReLUInto(dst, a, b *Tensor) {
	binaryCheck("AddReLUInto", a, b)
	binaryCheck("AddReLUInto dst", dst, a)
	if n := len(a.data); serialRange(n) {
		addReLURange(dst.data, a.data, b.data, 0, n)
	} else {
		forEach(n, func(lo, hi int) { addReLURange(dst.data, a.data, b.data, lo, hi) })
	}
}

func addReLURange(dst, a, b []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := a[i] + b[i]
		if v < 0 {
			v = 0
		}
		dst[i] = v
	}
}

// ReLUInto writes max(a, 0) into dst elementwise, leaving −0 and NaN as
// they are. dst may alias a.
func ReLUInto(dst, a *Tensor) {
	binaryCheck("ReLUInto", dst, a)
	if n := len(a.data); serialRange(n) {
		reLURange(dst.data, a.data, 0, n)
	} else {
		forEach(n, func(lo, hi int) { reLURange(dst.data, a.data, lo, hi) })
	}
}

func reLURange(dst, a []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := a[i]
		if v < 0 {
			v = 0
		}
		dst[i] = v
	}
}

// ScaleInPlace multiplies a by s in place and returns a.
func ScaleInPlace(a *Tensor, s float32) *Tensor {
	forEach(len(a.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a.data[i] *= s
		}
	})
	return a
}

// ReLUBackward returns grad masked by (input > 0): the gradient of ReLU.
func ReLUBackward(grad, input *Tensor) *Tensor {
	binaryCheck("ReLUBackward", grad, input)
	out := New(grad.shape...)
	forEach(len(grad.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if input.data[i] > 0 {
				out.data[i] = grad.data[i]
			}
		}
	})
	return out
}

// Sum returns the sum of all elements as float64 for numeric stability.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// ArgMaxRows treats t as a (rows, cols) matrix and returns the column index
// of the maximum in each row — the predicted class per sample.
func ArgMaxRows(t *Tensor) []int {
	if t.NDim() != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows wants a 2-D tensor, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		out[r] = ArgMax(t.data[r*cols : (r+1)*cols])
	}
	return out
}

// ArgMax returns the index of the largest value of row, the first of equals
// (0 for an empty row).
func ArgMax(row []float32) int {
	best := 0
	for c := 1; c < len(row); c++ {
		if row[c] > row[best] {
			best = c
		}
	}
	return best
}

// SoftmaxRows treats t as (rows, cols) and returns row-wise softmax,
// computed with the max-subtraction trick for stability.
func SoftmaxRows(t *Tensor) *Tensor {
	if t.NDim() != 2 {
		panic(fmt.Sprintf("tensor: SoftmaxRows wants a 2-D tensor, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(rows, cols)
	forEach(rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := t.data[r*cols : (r+1)*cols]
			dst := out.data[r*cols : (r+1)*cols]
			m := row[0]
			for _, v := range row[1:] {
				if v > m {
					m = v
				}
			}
			sum := 0.0
			for c, v := range row {
				e := math.Exp(float64(v - m))
				dst[c] = float32(e)
				sum += e
			}
			inv := float32(1.0 / sum)
			for c := range dst {
				dst[c] *= inv
			}
		}
	})
	return out
}
