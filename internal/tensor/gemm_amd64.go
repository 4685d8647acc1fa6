//go:build amd64

package tensor

// Float micro-kernel selection. The AVX2+FMA assembly kernel
// (gemm_amd64.s) computes a 6×16 float32 tile — 12 YMM accumulators, two
// YMM loads of the packed B row and six broadcast loads of the packed A
// column per k step — which is the classic occupancy-optimal shape for the
// 16-register AVX2 file. Where the CPU has AVX512F and the OS saves the
// ZMM state, the AVX-512 kernel takes the same packed operands and the
// same 6×16 tile, one ZMM accumulator per row, and returns the AVX2
// kernel's tile bit for bit. Feature detection is done directly with
// CPUID/XGETBV so the package stays dependency-free; the OS must have
// enabled XMM+YMM state saving or we stay on the scalar kernel.

// gemmKernel6x16 computes cbuf (6×16, contiguous) = or += the product of a
// packed A panel block (k-major, 6 wide) and a packed B panel block
// (k-major, 16 wide) over kc steps. acc != 0 resumes from cbuf's contents.
//
//go:noescape
func gemmKernel6x16(a, b, cbuf *float32, kc, acc int)

// gemmKernel6x16AVX512 is gemmKernel6x16 on ZMM registers, bit for bit.
//
//go:noescape
func gemmKernel6x16AVX512(a, b, cbuf *float32, kc, acc int)

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (OS-enabled SIMD state).
func xgetbv0() (eax, edx uint32)

func init() {
	if !cpuHasAVX2FMA() {
		return
	}
	gemmMR, gemmNR = 6, 16
	microKernel, gemmKernelName, avx2Kernel = kernelAVX2, "avx2-6x16", kernelAVX2
	if cpuHasAVX512(false) {
		microKernel, gemmKernelName = kernelAVX512, "avx512-6x16"
	}
}

func cpuHasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, ecx1, _ := cpuidex(1, 0)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state on context switch.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	const avx2Bit = 1 << 5
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&avx2Bit != 0
}

// cpuHasAVX512 reports whether the CPU has AVX512F — and, with vnni,
// AVX512_VNNI — and the OS saves the opmask and ZMM state on context
// switch (XCR0 bits 1, 2, 5, 6 and 7).
func cpuHasAVX512(vnni bool) bool {
	if !cpuHasAVX2FMA() {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&0xE6 != 0xE6 {
		return false
	}
	const (
		avx512fBit = 1 << 16 // CPUID.7.0:EBX
		vnniBit    = 1 << 11 // CPUID.7.0:ECX
	)
	_, ebx7, ecx7, _ := cpuidex(7, 0)
	return ebx7&avx512fBit != 0 && (!vnni || ecx7&vnniBit != 0)
}

func kernelAVX2(a, b, cbuf []float32, kc int, acc bool) {
	gemmKernel6x16(&a[0], &b[0], &cbuf[0], kc, accFlag(acc))
}

func kernelAVX512(a, b, cbuf []float32, kc int, acc bool) {
	gemmKernel6x16AVX512(&a[0], &b[0], &cbuf[0], kc, accFlag(acc))
}

func accFlag(acc bool) int {
	if acc {
		return 1
	}
	return 0
}
