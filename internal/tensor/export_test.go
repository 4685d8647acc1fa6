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

// RaceEnabled is raceEnabled for the external tests.
const RaceEnabled = raceEnabled

// ForceScalarKernel is forceScalarKernel for the external tests.
func ForceScalarKernel() (restore func()) { return forceScalarKernel() }

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
