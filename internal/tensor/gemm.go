package tensor

// Cache-blocked, register-tiled GEMM.
//
// The multiply C = A·B is driven as three nested blockings, the classic
// Goto/BLIS decomposition scaled to this package's shapes (weights × im2col
// columns, a few hundred per side):
//
//   - A is packed into row panels of gemmMR rows, laid out k-major so the
//     micro-kernel reads one contiguous gemmMR-wide column per k step.
//   - B is packed into column panels of gemmNR columns, also k-major, so
//     each k step reads one contiguous gemmNR-wide row.
//   - The k dimension is cut into gemmKC-sized blocks; one A panel block
//     (gemmMR×gemmKC) plus one B panel block (gemmKC×gemmNR) fit in L1/L2
//     while the gemmMR×gemmNR accumulator tile lives in registers.
//
// Parallelism is over output tiles — an (m/MR) × (n/NC) grid scheduled
// dynamically by parallel.ForTiles2D — instead of raw output rows, so a
// single tall-or-wide multiply still fans out across every core.
//
// The micro-kernel itself is selected at init: an AVX2+FMA 6×16 assembly
// kernel on capable amd64 hardware (see gemm_amd64.s), otherwise a pure-Go
// 4×4 register-tiled kernel. Both accumulate into a small contiguous tile
// buffer; the driver merges the tile into C, which keeps edge handling (m, n
// not multiples of the tile) out of the hot loop entirely.

import (
	"sync"
	"sync/atomic"

	"drainnas/internal/metrics"
	"drainnas/internal/parallel"
)

const (
	// gemmKC is the k-block size: one packed A block (gemmMR×gemmKC) and
	// one packed B block (gemmKC×gemmNR) together stay well inside L1/L2
	// while the accumulator tile stays in registers.
	gemmKC = 256
	// gemmNC is the number of output columns per parallel grid cell; the
	// packed B slice a cell touches (gemmKC×gemmNC ≈ 256 KiB) is reused
	// across every row tile, so it should be L2-resident.
	gemmNC = 256
	// gemmMaxTile bounds the accumulator tile buffer (6×16 for the AVX2
	// kernel is the largest shape), gemmMaxNR the panel width.
	gemmMaxTile = 96
	gemmMaxNR   = 16
	// gemmSerialCutoff is the m*k*n product below which packing cannot
	// amortize and the naive streaming kernel runs instead (serially: the
	// goroutine fan-out dominates at this size too).
	gemmSerialCutoff = 1 << 15
)

// Micro-kernel configuration, fixed at init (gemm_amd64.go upgrades it when
// the CPU supports AVX2+FMA). A kernel computes or continues the product of
// one packed A panel block and one packed B panel block into the contiguous
// mr×nr tile buffer cbuf: acc=false starts a fresh tile, acc=true resumes
// one mid-way through the k-block loop.
var (
	gemmMR                                                      = 4
	gemmNR                                                      = 4
	microKernel    func(a, b, cbuf []float32, kc int, acc bool) = kernelScalar4x4
	gemmKernelName                                              = "scalar-4x4"
)

// GemmKernelName identifies the micro-kernel selected for this process
// ("avx2-6x16" or "scalar-4x4"), for stats endpoints and benchmark records.
func GemmKernelName() string { return gemmKernelName }

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
	pa.buf = getScratch(pa.rowTiles * pa.kBlocks * gemmKC * gemmMR)
	return pa
}

func packA(a []float32, lda, m, k int) packedA {
	pa := newPackedA(m, k)
	mr, rowTiles, kBlocks, slot := gemmMR, pa.rowTiles, pa.kBlocks, gemmKC*gemmMR
	for rt := 0; rt < rowTiles; rt++ {
		rows := m - rt*mr
		if rows > mr {
			rows = mr
		}
		for kb := 0; kb < kBlocks; kb++ {
			k0 := kb * gemmKC
			kcLen := k - k0
			if kcLen > gemmKC {
				kcLen = gemmKC
			}
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
	return pa
}

func (pa packedA) release() { putScratch(pa.buf) }

// packedB is matrix B packed into column panels: slot (p, kb) holds the
// kcLen×gemmNR block of columns [p*NR, p*NR+NR) and the kb-th k block,
// stored k-major (element (kk, jr) at kk*NR+jr). For a fixed panel the kb
// slots are contiguous, so the per-tile k loop streams sequentially.
// Padded columns are zero-filled for the same denormal reason as packedA.
type packedB struct {
	buf     []float32
	k, n    int
	nPanels int
	kBlocks int
}

// packB packs the k×n matrix b (leading dimension ldb ≥ n; ldb > n selects
// a column window of a wider matrix).
func packB(b []float32, ldb, k, n int) packedB {
	nr := gemmNR
	nPanels := (n + nr - 1) / nr
	kBlocks := (k + gemmKC - 1) / gemmKC
	slot := gemmKC * nr
	pb := packedB{
		buf:     getScratch(nPanels * kBlocks * slot),
		k:       k,
		n:       n,
		nPanels: nPanels,
		kBlocks: kBlocks,
	}
	for p := 0; p < nPanels; p++ {
		j0 := p * nr
		cols := n - j0
		if cols > nr {
			cols = nr
		}
		for kb := 0; kb < kBlocks; kb++ {
			k0 := kb * gemmKC
			kcLen := k - k0
			if kcLen > gemmKC {
				kcLen = gemmKC
			}
			dst := pb.buf[(p*kBlocks+kb)*slot:]
			for kk := 0; kk < kcLen; kk++ {
				src := b[(k0+kk)*ldb+j0:]
				drow := dst[kk*nr : kk*nr+nr]
				for j := 0; j < cols; j++ {
					drow[j] = src[j]
				}
				for j := cols; j < nr; j++ {
					drow[j] = 0
				}
			}
		}
	}
	return pb
}

func (pb packedB) release() { putScratch(pb.buf) }

// computeTiles runs the micro-kernel over row tiles [rtLo, rtHi) × column
// panels [pLo, pHi), serially. For each output tile the k blocks accumulate
// in the register tile (via cbuf between blocks) and the finished tile is
// merged into C exactly once, masked to the valid rows/columns.
func computeTiles(pa packedA, pb packedB, c []float32, ldc int, rtLo, rtHi, pLo, pHi int, acc bool) {
	mr, nr := gemmMR, gemmNR
	aslot := gemmKC * mr
	bslot := gemmKC * nr
	kBlocks := pa.kBlocks
	// The accumulator tile comes from the scratch pool rather than a local
	// array: microKernel is a func variable, so escape analysis would move a
	// local to the heap on every call — the pool round trip is allocation-free.
	cbuf := getScratch(mr * nr)
	defer putScratch(cbuf)
	for rt := rtLo; rt < rtHi; rt++ {
		rows := pa.m - rt*mr
		if rows > mr {
			rows = mr
		}
		for p := pLo; p < pHi; p++ {
			cols := pb.n - p*nr
			if cols > nr {
				cols = nr
			}
			for kb := 0; kb < kBlocks; kb++ {
				kcLen := pa.k - kb*gemmKC
				if kcLen > gemmKC {
					kcLen = gemmKC
				}
				microKernel(
					pa.buf[(rt*kBlocks+kb)*aslot:],
					pb.buf[(p*kBlocks+kb)*bslot:],
					cbuf, kcLen, kb > 0)
			}
			for ir := 0; ir < rows; ir++ {
				crow := c[(rt*mr+ir)*ldc+p*nr:]
				trow := cbuf[ir*nr:]
				if acc {
					for j := 0; j < cols; j++ {
						crow[j] += trow[j]
					}
				} else {
					for j := 0; j < cols; j++ {
						crow[j] = trow[j]
					}
				}
			}
		}
	}
}

// gemmParallel computes (or accumulates, acc) c = a·b for row-major
// operands, parallelizing over the output-tile grid. c has leading
// dimension n (dense), a is m×k, b is k×n.
func gemmParallel(c, a, b []float32, m, k, n int, acc bool) {
	pa := packA(a, k, m, k)
	pb := packB(b, n, k, n)
	metrics.Kernel.TilesDispatched(pa.rowTiles * pb.nPanels)
	ncPanels := gemmNC / gemmNR
	nBlocks := (pb.nPanels + ncPanels - 1) / ncPanels
	parallel.ForTiles2D(pa.rowTiles, nBlocks, 0, func(rt, nb int) {
		pLo := nb * ncPanels
		pHi := pLo + ncPanels
		if pHi > pb.nPanels {
			pHi = pb.nPanels
		}
		computeTiles(pa, pb, c, n, rt, rt+1, pLo, pHi, acc)
	})
	pa.release()
	pb.release()
}

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
