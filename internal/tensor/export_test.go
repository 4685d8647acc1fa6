package tensor

// Test hooks. The parity suite needs to pin which micro-kernel runs (the
// assembly kernel is verified against the scalar kernel, and both against
// the naive oracle) and to compare pooled against fresh-buffer execution.

// forceScalarKernel switches the GEMM to the portable 4×4 kernel and
// returns a restore func. Not safe to call while kernels are running.
func forceScalarKernel() (restore func()) {
	mr, nr, k, name := gemmMR, gemmNR, microKernel, gemmKernelName
	gemmMR, gemmNR, microKernel, gemmKernelName = 4, 4, kernelScalar4x4, "scalar-4x4"
	return func() { gemmMR, gemmNR, microKernel, gemmKernelName = mr, nr, k, name }
}

// forceAVX2Kernels switches the float and int8 GEMMs to their AVX2 kernels
// and returns a restore func, or returns nil where the host has no AVX2
// kernel. An AVX-512 host selects wider kernels at init; this keeps the
// AVX2 ones, which every AVX2-only host ships, under test there. Not safe
// to call while kernels are running.
func forceAVX2Kernels() (restore func()) {
	if avx2Kernel == nil {
		return nil
	}
	mr, nr, k, name := gemmMR, gemmNR, microKernel, gemmKernelName
	qk, qname := qKernel, qKernelName
	gemmMR, gemmNR, microKernel, gemmKernelName = 6, 16, avx2Kernel, "avx2-6x16"
	qKernel, qKernelName = qavx2Kernel, "avx2-4x16"
	return func() {
		gemmMR, gemmNR, microKernel, gemmKernelName = mr, nr, k, name
		qKernel, qKernelName = qk, qname
	}
}

// EachKernel runs fn under every float micro-kernel the host has: the
// selected one; the AVX2 one, with the AVX2 int8 kernel, where the host
// selected wider ones; and the scalar one.
func EachKernel(fn func()) {
	fn()
	if gemmKernelName != "avx2-6x16" {
		if restore := forceAVX2Kernels(); restore != nil {
			func() {
				defer restore()
				fn()
			}()
		}
	}
	if gemmKernelName != "scalar-4x4" {
		defer forceScalarKernel()()
		fn()
	}
}

// RaceEnabled is raceEnabled for the external tests.
const RaceEnabled = raceEnabled

// disableScratchPool makes every scratch request allocate fresh (and every
// return drop), so pooled runs can be compared against unpooled ones.
func disableScratchPool() (restore func()) {
	prev := scratchPoolDisabled
	scratchPoolDisabled = true
	return func() { scratchPoolDisabled = prev }
}

// ConvBlockBytes is the packed column block budget, for the external test
// that bounds what a real model's forward asks the scratch pools for.
const ConvBlockBytes = convBlockBytes

// ObserveScratch reports the size in bytes of every scratch request to fn
// (called from whichever goroutine makes the request) until restore runs.
func ObserveScratch(fn func(bytes int)) (restore func()) {
	scratchObserver = fn
	return func() { scratchObserver = nil }
}

// forceWinograd runs every 3×3 stride-1 pad-1 convolution the AVX2 kernel
// runs on the Winograd path, whatever its size, until restore runs.
func forceWinograd() (restore func()) {
	winoAnyShape = true
	return func() { winoAnyShape = false }
}

// forceGoQuant runs the int8 forward's pack, requantize epilogue, QAddInto
// and QuantizeInto as their Go loops, the AVX2 kernels' oracles, until
// restore runs. Not safe to call while kernels are running.
func forceGoQuant() (restore func()) {
	prev := qForwardAVX2
	qForwardAVX2 = false
	return func() { qForwardAVX2 = prev }
}
