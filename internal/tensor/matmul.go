package tensor

import (
	"fmt"

	"drainnas/internal/metrics"
)

// MatMul computes the matrix product of a (m×k) and b (k×n), parallelized
// over rows of the output. The inner loops are ordered i-k-j so the innermost
// loop streams both b and out rows sequentially, which is the
// cache-friendliest layout for row-major data.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := matmulDims(a, b)
	out := New(m, n)
	matmulInto(out, a, b, m, k, n, false)
	return out
}

// MatMulAcc computes out += a·b, reusing out's storage (shapes must agree).
func MatMulAcc(out, a, b *Tensor) {
	m, k, n := matmulDims(a, b)
	if out.NDim() != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAcc out shape %v, want [%d %d]", out.shape, m, n))
	}
	matmulInto(out, a, b, m, k, n, true)
}

func matmulDims(a, b *Tensor) (m, k, n int) {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: MatMul wants 2-D operands, got %v and %v", a.shape, b.shape))
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	return m, k, b.shape[1]
}

// matmulInto writes (or accumulates into) out = a·b, dispatching on size:
// matrices below gemmSerialCutoff run the naive streaming kernel serially
// (packing and goroutine fan-out both cost more than they save there);
// everything larger goes to the cache-blocked, register-tiled kernel in
// gemm.go, parallelized over output tiles.
func matmulInto(out, a, b *Tensor, m, k, n int, acc bool) {
	if m*k*n < gemmSerialCutoff {
		metrics.Kernel.NaiveCall()
		matmulNaive(out.data, n, a.data, k, b.data, n, m, k, n, acc)
		return
	}
	metrics.Kernel.GemmCall()
	gemmParallel(out.data, a.data, b.data, m, k, n, acc)
}

// matmulNaive is the dense i-k-j streaming kernel: the innermost loop walks
// one B row and one C row sequentially, the cache-friendliest layout for
// row-major data without packing. It is retained for two jobs — the serial
// path for tiny matrices (below gemmSerialCutoff, where the tiled kernel's
// packing cannot amortize) and the oracle the tiled kernel's parity tests
// compare against. It deliberately has no zero-skip branch: on dense
// activations the branch never fires and only costs the predictor.
//
// Operands are strided: c is m×n with leading dimension ldc, a is m×k with
// lda, b is k×n with ldb, so callers can address column windows of wider
// matrices in place.
func matmulNaive(c []float32, ldc int, a []float32, lda int, b []float32, ldb int, m, k, n int, acc bool) {
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+n]
		if !acc {
			for j := range crow {
				crow[j] = 0
			}
		}
		arow := a[i*lda : i*lda+k]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			brow := b[kk*ldb : kk*ldb+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.NDim() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D wants a 2-D tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	const block = 32 // blocked transpose for cache locality
	forEach(m, func(lo, hi int) {
		for i0 := lo; i0 < hi; i0 += block {
			iMax := i0 + block
			if iMax > hi {
				iMax = hi
			}
			for j0 := 0; j0 < n; j0 += block {
				jMax := j0 + block
				if jMax > n {
					jMax = n
				}
				for i := i0; i < iMax; i++ {
					for j := j0; j < jMax; j++ {
						out.data[j*m+i] = a.data[i*n+j]
					}
				}
			}
		}
	})
	return out
}
