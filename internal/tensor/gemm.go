package tensor

// The float GEMM's micro-kernels and A-side packing.
//
// Every float multiply in the package — a convolution forward, both halves
// of its backward, a fully connected head as a 1×1 convolution — runs on one
// driver, convInto and its panel packers (convpanel.go, convgrad.go); the
// one exception, the Winograd forward's sixteen transform-domain GEMMs
// (winograd.go), walks tiles in place of pixels on the same parts. What
// they share lives here:
//
//   - the micro-kernel, selected at init: a 6×16 assembly kernel on capable
//     amd64 hardware (AVX-512 where the host has it, else AVX2+FMA; see
//     gemm_amd64.s), otherwise a pure-Go 4×4 register-tiled kernel. All
//     accumulate one gemmMR×gemmNR tile into a small contiguous buffer;
//     the driver merges it into the output, which keeps edge handling out
//     of the hot loop entirely.
//   - packA, which packs the weights into row panels of gemmMR rows, laid
//     out k-major so the micro-kernel reads one contiguous gemmMR-wide
//     column per k step, the k dimension cut into gemmKC-sized blocks.
//   - weightPack, which packs a layer's weights once and shares the panels
//     with every batch through the layer.

import (
	"sync"
	"sync/atomic"

	"drainnas/internal/metrics"
	"drainnas/internal/parallel"
)

const (
	// gemmKC is the k-block size: one packed A block (gemmMR×gemmKC) and
	// one packed panel block (gemmKC×gemmNR) together stay well inside
	// L1/L2 while the accumulator tile stays in registers.
	gemmKC = 256
	// gemmMaxTile bounds the accumulator tile buffer (6×16 for the AVX2
	// kernel is the largest shape), gemmMaxNR the panel width.
	gemmMaxTile = 96
	gemmMaxNR   = 16
	// gemmSerialCutoff is the per-sample m*k*n product below which packing
	// cannot amortize and the naive streaming kernel runs instead (serially:
	// the goroutine fan-out dominates at this size too).
	gemmSerialCutoff = 1 << 15
)

// packWorkers is the worker count for one pass over elems weights — a
// pack, a transform, a quantization: one worker per gemmSerialCutoff of
// them, at most DefaultWorkers, so a small layer's pass (training repacks
// its weights every step) never pays the fan-out.
func packWorkers(elems int) int { return min(parallel.DefaultWorkers, 1+elems/gemmSerialCutoff) }

// Micro-kernel configuration, fixed at init (gemm_amd64.go upgrades it when
// the CPU supports AVX2+FMA, and again when it supports AVX-512). A kernel
// computes or continues the product of one packed A panel block and one
// packed B panel block into the contiguous mr×nr tile buffer cbuf:
// acc=false starts a fresh tile, acc=true resumes one mid-way through the
// k-block loop.
var (
	gemmMR                                                      = 4
	gemmNR                                                      = 4
	microKernel    func(a, b, cbuf []float32, kc int, acc bool) = kernelScalar4x4
	gemmKernelName                                              = "scalar-4x4"
	// avx2Kernel is the AVX2 kernel where the host has one, selected or
	// not: an AVX-512 host runs a wider kernel but keeps this one, which
	// every AVX2-only host ships, under test.
	avx2Kernel func(a, b, cbuf []float32, kc int, acc bool)
)

// GemmKernelName identifies the micro-kernel selected for this process
// ("avx512-6x16", "avx2-6x16" or "scalar-4x4"), for stats endpoints and
// benchmark records.
func GemmKernelName() string { return gemmKernelName }

// GemmArithmetic names the arithmetic of the selected micro-kernel, which
// is what fixes its results bit for bit: "fused-6x16" for every assembly
// kernel — each output one fused multiply-add chain in k order — and
// "scalar-4x4" for the portable kernel, which multiplies and adds
// separately. Pins on float results key on it rather than on the kernel.
func GemmArithmetic() string {
	if gemmKernelName == "scalar-4x4" {
		return "scalar-4x4"
	}
	return "fused-6x16"
}

// kernelScalar4x4 is the portable micro-kernel: a 4×4 accumulator tile held
// in locals, two packed operand reads per k step, no stores inside the
// loop. It is the fallback when no assembly kernel is available and the
// reference implementation the assembly kernel is tested against.
func kernelScalar4x4(a, b, cbuf []float32, kc int, acc bool) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	if acc {
		c00, c01, c02, c03 = cbuf[0], cbuf[1], cbuf[2], cbuf[3]
		c10, c11, c12, c13 = cbuf[4], cbuf[5], cbuf[6], cbuf[7]
		c20, c21, c22, c23 = cbuf[8], cbuf[9], cbuf[10], cbuf[11]
		c30, c31, c32, c33 = cbuf[12], cbuf[13], cbuf[14], cbuf[15]
	}
	a = a[: 4*kc : 4*kc]
	b = b[: 4*kc : 4*kc]
	for len(a) >= 4 && len(b) >= 4 {
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		a = a[4:]
		b = b[4:]
	}
	cbuf[0], cbuf[1], cbuf[2], cbuf[3] = c00, c01, c02, c03
	cbuf[4], cbuf[5], cbuf[6], cbuf[7] = c10, c11, c12, c13
	cbuf[8], cbuf[9], cbuf[10], cbuf[11] = c20, c21, c22, c23
	cbuf[12], cbuf[13], cbuf[14], cbuf[15] = c30, c31, c32, c33
}

// packedA is matrix A packed into row-tile panels: slot (rt, kb) holds the
// gemmMR×kcLen block of rows [rt*MR, rt*MR+MR) and k range
// [kb*KC, kb*KC+kcLen), stored k-major (element (kk, ir) at kk*MR+ir).
// Slots are padded to full gemmKC×gemmMR so offsets are uniform; padded
// rows are zero-filled so the micro-kernel never multiplies stale pool
// garbage (denormals there would poison throughput, not correctness).
type packedA struct {
	buf      []float32
	m, k     int
	rowTiles int
	kBlocks  int
}

// newPackedA sizes the panels of an m×k matrix; the caller fills them.
func newPackedA(m, k int) packedA {
	pa := packedA{m: m, k: k, rowTiles: (m + gemmMR - 1) / gemmMR, kBlocks: (k + gemmKC - 1) / gemmKC}
	pa.buf = scratchF32.get(pa.rowTiles * pa.kBlocks * gemmKC * gemmMR)
	return pa
}

// packA packs the m×k matrix a (row stride lda) into row-tile panels, the
// row tiles split across packWorkers(m·k) workers.
func packA(a []float32, lda, m, k int) packedA {
	pa := newPackedA(m, k)
	if workers := packWorkers(m * k); workers == 1 {
		pa.pack(a, lda, 0, pa.rowTiles)
	} else {
		parallel.ForChunked(pa.rowTiles, workers, func(lo, hi int) { pa.pack(a, lda, lo, hi) })
	}
	return pa
}

// pack fills row tiles [lo, hi) from a.
func (pa packedA) pack(a []float32, lda, lo, hi int) {
	mr, kBlocks, slot := gemmMR, pa.kBlocks, gemmKC*gemmMR
	for rt := lo; rt < hi; rt++ {
		rows := min(pa.m-rt*mr, mr)
		for kb := 0; kb < kBlocks; kb++ {
			k0 := kb * gemmKC
			kcLen := min(pa.k-k0, gemmKC)
			dst := pa.buf[(rt*kBlocks+kb)*slot:]
			for ir := 0; ir < rows; ir++ {
				src := a[(rt*mr+ir)*lda+k0:]
				for kk := 0; kk < kcLen; kk++ {
					dst[kk*mr+ir] = src[kk]
				}
			}
			for ir := rows; ir < mr; ir++ {
				for kk := 0; kk < kcLen; kk++ {
					dst[kk*mr+ir] = 0
				}
			}
		}
	}
}

func (pa packedA) release() { scratchF32.put(pa.buf) }

// weightPack defers and caches the A-panel packing of a matrix that many
// multiplies share — the weight matrix of a convolution, which every batch
// through the layer multiplies by. The first consumer above the tiled cutoff
// packs; the rest reuse the panels.
type weightPack struct {
	src  []float32
	lda  int
	m, k int

	once sync.Once
	pa   packedA
	uses atomic.Int64
}

func newWeightPack(src []float32, lda, m, k int) *weightPack {
	return &weightPack{src: src, lda: lda, m: m, k: k}
}

// panels returns the packed row-tile panels, packing them on first use.
// Safe for concurrent use.
func (wp *weightPack) panels() *packedA {
	wp.once.Do(func() { wp.pa = packA(wp.src, wp.lda, wp.m, wp.k) })
	if wp.uses.Add(1) > 1 {
		metrics.Kernel.PackReused()
	}
	return &wp.pa
}

// release returns the packed panels (if anything ever packed them) to the
// scratch pool. Call only after every consumer has returned.
func (wp *weightPack) release() {
	if wp.uses.Load() > 0 {
		wp.pa.release()
	}
}
