//go:build amd64

package tensor

// AVX2 int8 micro-kernel selection. The assembly kernel (qgemm_amd64.s)
// computes a 4×16 int32 tile via the VPMADDUBSW → VPMADDWD(ones) → VPADDD
// chain: eight YMM accumulators, two YMM loads of the packed B quad row and
// four broadcast dword loads of the packed A weight quads per k-quad — 30
// instructions for 256 multiply-adds, against the float kernel's 20 for 96.
// It shares the float kernel's feature gate: VPMADDUBSW's 256-bit form is
// AVX2, and the OS-state checks are identical. Where the CPU has
// AVX512_VNNI, the VNNI kernel replaces each row's three-instruction chain
// with one VPDPBUSD on a ZMM register; it sums in int32 with no int16
// stage, so it too is exact and returns the same tile.

// qgemmKernel4x16 computes cbuf (4×16 int32, contiguous) = the product of a
// packed s8 weight row-tile and a packed u8 activation panel over kq
// k-quads.
//
//go:noescape
func qgemmKernel4x16(a *int8, b *uint8, cbuf *int32, kq int)

// qgemmKernel4x16VNNI is qgemmKernel4x16 on AVX512_VNNI.
//
//go:noescape
func qgemmKernel4x16VNNI(a *int8, b *uint8, cbuf *int32, kq int)

func init() {
	if !cpuHasAVX2FMA() {
		return
	}
	qKernel, qKernelName, qavx2Kernel = qkernelAVX2, "avx2-4x16", qkernelAVX2
	if cpuHasAVX512(true) {
		qKernel, qKernelName = qkernelVNNI, "avx512vnni-4x16"
	}
}

func qkernelAVX2(a []int8, b []uint8, cbuf []int32, kq int) {
	if kq == 0 {
		clear(cbuf[:qMR*qNR])
		return
	}
	qgemmKernel4x16(&a[0], &b[0], &cbuf[0], kq)
}

func qkernelVNNI(a []int8, b []uint8, cbuf []int32, kq int) {
	if kq == 0 {
		clear(cbuf[:qMR*qNR])
		return
	}
	qgemmKernel4x16VNNI(&a[0], &b[0], &cbuf[0], kq)
}
