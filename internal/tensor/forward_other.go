//go:build !amd64

package tensor

// forwardAVX2 stays false off amd64: the forward's movers, pool passes and
// epilogue are their Go loops, and the kernels below are never called.
var forwardAVX2 bool

func packRowsS2(dst, src *float32, dstStride, srcStride, rows int, store, keep uint32) {
	panic("tensor: no AVX2 kernels off amd64")
}

func poolColsF32(dst, src *float32, n, rows, stride int) { panic("tensor: no AVX2 kernels off amd64") }

func poolColsI8(dst, src *int8, n, rows, stride int) { panic("tensor: no AVX2 kernels off amd64") }

func poolRowF32(dst, m *float32, n, kernel, stride int) { panic("tensor: no AVX2 kernels off amd64") }

func storeTile(dst, src, join, bias *float32, dstStride, rows, n int, relu bool) {
	panic("tensor: no AVX2 kernels off amd64")
}

func winoInput(dst, src *float32, off, w, hw, chans, xiStride, lo, hi, n, rows int) {
	panic("tensor: no AVX2 kernels off amd64")
}

func winoOutput(dst, m, join, bias *float32, ohw, ow, rows, cols, pairs int, relu bool) {
	panic("tensor: no AVX2 kernels off amd64")
}
