package tensor

// Packed int8 GEMM: the integer sibling of the float path in gemm.go,
// shaped around the AVX2 VPMADDUBSW/VPMADDWD reduction.
//
// The product is C = W·B with W the quantized s8 weight matrix (one row per
// output channel, |w| ≤ QWeightMax) and B the quantized activation columns.
// The k dimension is processed four taps at a time ("k-quads"): VPMADDUBSW
// multiplies u8 activations against s8 weights and sums adjacent pairs into
// int16 lanes, VPMADDWD(ones) folds the int16 pairs into int32 lanes, and
// VPADDD accumulates — one int32 per output column per quad, three
// instructions for sixteen multiply-adds.
//
// Activations are stored s8 in the arena (zero-point 0) and offset to u8
// (+128, a byte XOR 0x80) only inside the packed B panels, because
// VPMADDUBSW wants its first operand unsigned. The offset contributes
// 128·Σ_k w[o][k] to every output, a per-output-channel constant the
// epilogue subtracts exactly (QuantizedConv keeps it as comp[o]). Zero
// activations and zero-padded taps therefore contribute nothing, the same
// as in float.
//
// Unlike the float path there is no k blocking: the int32 accumulator tile
// lives in registers across the whole k loop (|acc| ≤ k·2·32130 keeps far
// inside int32 for any shape this package produces), and the per-quad
// operand reads — 64 B of packed B, 16 B of packed A — stream sequentially.
const (
	// qMR×qNR is the micro-tile: 4 output channels × 16 columns, eight YMM
	// int32 accumulators in the AVX2 kernel.
	qMR = 4
	qNR = 16
)

// qKernel computes the qMR×qNR int32 tile cbuf = A_panel·B_panel over kq
// k-quads. a is one packed weight row-tile (s8), b one packed activation
// column panel (u8, +128 offset). Overwrites cbuf (no accumulate flavor:
// the k loop is not blocked). Swapped to the AVX2 kernel at init on capable
// hardware.
var (
	qKernel     func(a []int8, b []uint8, cbuf []int32, kq int) = qkernelScalar4x16
	qKernelName                                                 = "scalar-4x16"
)

// QGemmKernelName identifies the int8 micro-kernel selected for this
// process ("avx2-4x16" or "scalar-4x16"), for stats endpoints and benchmark
// records.
func QGemmKernelName() string { return qKernelName }

// qkernelScalar4x16 is the portable int8 micro-kernel and the reference the
// assembly kernel is tested against. Plain integer arithmetic: with weights
// bounded to ±QWeightMax the saturating VPMADDUBSW path is exact, so both
// kernels produce identical int32 tiles.
func qkernelScalar4x16(a []int8, b []uint8, cbuf []int32, kq int) {
	cbuf = cbuf[:qMR*qNR]
	for i := range cbuf {
		cbuf[i] = 0
	}
	for q := 0; q < kq; q++ {
		aq := a[q*qMR*4 : q*qMR*4+qMR*4]
		bq := b[q*qNR*4 : q*qNR*4+qNR*4]
		for r := 0; r < qMR; r++ {
			w0 := int32(aq[r*4])
			w1 := int32(aq[r*4+1])
			w2 := int32(aq[r*4+2])
			w3 := int32(aq[r*4+3])
			crow := cbuf[r*qNR : r*qNR+qNR]
			for j := 0; j < qNR; j++ {
				crow[j] += int32(bq[j*4])*w0 + int32(bq[j*4+1])*w1 +
					int32(bq[j*4+2])*w2 + int32(bq[j*4+3])*w3
			}
		}
	}
}

// packedQA is the s8 weight matrix packed into row-tile panels: slot rt
// holds rows [rt·qMR, rt·qMR+qMR), laid out k-quad-major — quad q of row r
// at offset (q·qMR + r)·4 within the slot — so the kernel broadcasts one
// 4-byte weight dword per row per quad. Padded rows and padded k taps are
// zero-filled: a zero weight nullifies whatever byte sits in the matching B
// slot, which is what makes the k padding correctness-free.
type packedQA struct {
	buf      []int8
	m, k     int
	rowTiles int
	kQuads   int
}

// packQA packs the m×k row-major s8 matrix w. The buffer is plainly
// allocated, not pooled: weight packs are built once per conv lifetime
// (QuantizedConv caches them behind a sync.Once), never released into a
// pool.
func packQA(w []int8, m, k int) packedQA {
	rowTiles := (m + qMR - 1) / qMR
	kQuads := (k + 3) / 4
	slot := kQuads * qMR * 4
	pa := packedQA{
		buf:      make([]int8, rowTiles*slot),
		m:        m,
		k:        k,
		rowTiles: rowTiles,
		kQuads:   kQuads,
	}
	for rt := 0; rt < rowTiles; rt++ {
		rows := m - rt*qMR
		if rows > qMR {
			rows = qMR
		}
		dst := pa.buf[rt*slot : (rt+1)*slot]
		for r := 0; r < rows; r++ {
			src := w[(rt*qMR+r)*k : (rt*qMR+r)*k+k]
			for kk, v := range src {
				dst[(kk/4)*qMR*4+r*4+kk%4] = v
			}
		}
	}
	return pa
}
