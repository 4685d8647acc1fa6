//go:build !amd64

package tensor

// qForwardAVX2 stays false off amd64: the int8 forward's pack, epilogue,
// add and quantizer are their Go loops, and the kernels below are never
// called.
var qForwardAVX2 bool

func packQRun(dst *uint8, src *int8, lim, origin, hw, wskip, kw int, masks *int32, taps, chans, stride, store int) {
	panic("tensor: no AVX2 kernels off amd64")
}

func qstoreTile(dst *int8, src, comp *int32, mult, add *float32, dstStride, rows, n int, lo float32) {
	panic("tensor: no AVX2 kernels off amd64")
}

func qaddBlocks(dst, a, b *int8, n int, ra, rb, lo float32) {
	panic("tensor: no AVX2 kernels off amd64")
}

func quantizeBlocks(dst *int8, src *float32, n int, inv float32) {
	panic("tensor: no AVX2 kernels off amd64")
}
