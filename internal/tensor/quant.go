package tensor

import (
	"math"

	"drainnas/internal/parallel"
)

// Symmetric int8 quantization primitives shared by the quantized GEMM path
// and the plan compiler's PTQ pass (internal/infer).
//
// Activations use per-tensor symmetric scales with zero-point 0: a float v
// maps to clamp(round(v/scale)) in [-QActMax, QActMax]. Weights use
// per-output-channel symmetric scales bounded to ±QWeightMax.
const (
	// QActMax is the activation quantization ceiling (full signed 8-bit).
	QActMax = 127
	// QWeightMax bounds quantized weight magnitude to ±63 rather than ±127.
	// The AVX2 kernel multiplies u8 activations against s8 weights with
	// VPMADDUBSW, which saturates its int16 lanes: a pair sum reaches at
	// most 255·QWeightMax·2 = 32130 < 32767, so with this bound the
	// saturating instruction is exact and the scalar kernel (plain integer
	// arithmetic) matches it bit for bit.
	QWeightMax = 63
)

// MaxAbs returns the largest absolute value in xs (0 for an empty slice).
// NaNs are ignored; an infinity saturates the result. It compares the
// values' magnitude bits, under which unsigned order is float order, with
// a NaN's bits masked to 0: no branch depends on the data, so random signs
// cost nothing, and four running maxima keep the loop off one dependency
// chain.
func MaxAbs(xs []float32) float32 {
	var m0, m1, m2, m3 uint32
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		m0 = max(m0, absBits(xs[i]))
		m1 = max(m1, absBits(xs[i+1]))
		m2 = max(m2, absBits(xs[i+2]))
		m3 = max(m3, absBits(xs[i+3]))
	}
	for ; i < len(xs); i++ {
		m0 = max(m0, absBits(xs[i]))
	}
	return math.Float32frombits(max(m0, m1, m2, m3))
}

// absBits returns the bits of |v|, or 0 when v is NaN: 0x7f800000 − b is
// negative exactly for a NaN's magnitude b, and its sign bit, spread to a
// mask, clears b.
func absBits(v float32) uint32 {
	b := math.Float32bits(v) &^ (1 << 31)
	return b &^ uint32(int32(0x7f800000-b)>>31)
}

// ActScale converts an observed activation max-abs into the symmetric
// per-tensor scale: maxAbs/QActMax, or 1 when that is not a usable scale —
// all-zero calibration values, an infinite range, or a range so small the
// quotient underflows to zero or to a subnormal whose reciprocal overflows.
func ActScale(maxAbs float32) float32 {
	return sanitizeScale(maxAbs / QActMax)
}

// sanitizeScale guards the quantization helpers against adversarial scales
// (zero, negative, NaN, ±Inf, and subnormals whose reciprocal overflows):
// any non-usable scale degrades to 1, keeping the round trip well-defined
// instead of panicking or emitting NaN bytes.
func sanitizeScale(scale float32) float32 {
	if !(scale > 0) || math.IsInf(float64(scale), 0) || math.IsInf(float64(1/scale), 0) {
		return 1
	}
	return scale
}

// QuantizeInto quantizes src into dst: dst[i] = clamp(round(src[i]/scale))
// in [-QActMax, QActMax]. Lengths must match. NaN inputs quantize to 0.
func QuantizeInto(dst []int8, src []float32, scale float32) {
	if len(dst) != len(src) {
		panic("tensor: QuantizeInto length mismatch")
	}
	quantizeRow(dst, src, 1/sanitizeScale(scale))
}

// quantizeRow is the package's one float → int8 rounding: dst[i] =
// clamp(round(src[i]·inv)) in [-QActMax, QActMax], NaN to 0. Under AVX2,
// quantizeBlocks does sixteen values a step and the loop only the tail.
func quantizeRow(dst []int8, src []float32, inv float32) {
	i := 0
	if n := len(src) &^ 15; qForwardAVX2 && n > 0 {
		quantizeBlocks(&dst[0], &src[0], n, inv)
		i = n
	}
	for ; i < len(src); i++ {
		dst[i] = quantizeOne(src[i] * inv)
	}
}

// quantizeOne rounds a pre-scaled value to the clamped int8 grid.
func quantizeOne(v float32) int8 {
	r := math.RoundToEven(float64(v))
	switch {
	case math.IsNaN(r):
		return 0
	case r > QActMax:
		return QActMax
	case r < -QActMax:
		return -QActMax
	}
	return int8(r)
}

// minNormal32 is the smallest normal float32.
const minNormal32 = 0x1p-126

// QuantizeWeightsPerChannel quantizes an oc×kdim row-major weight matrix to
// int8 with one symmetric scale per output channel (row): scale[o] =
// maxabs(row o)/QWeightMax, q = clamp(round(w/scale[o])) in
// [-QWeightMax, QWeightMax], NaN to 0. An all-zero row gets scale 1 so
// dequantization stays exact (0·1 = 0), and so does a row whose max-abs is
// infinite. Rows are split across the worker pool.
//
// Each row goes through quantizeRow. Where the scale is a normal float and
// the max-abs finite, |w/scale| ≤ 63 + a few ulps, so quantizeRow's ±QActMax
// clamp never binds and its bytes are already in ±QWeightMax; a subnormal
// scale (whose reciprocal may be inexact or infinite) or an infinite row
// clamps the rounded bytes to ±QWeightMax after, which is the clamp at ±63
// of the same rounded values.
func QuantizeWeightsPerChannel(w []float32, oc, kdim int) (q []int8, scales []float32) {
	if len(w) != oc*kdim {
		panic("tensor: QuantizeWeightsPerChannel length mismatch")
	}
	q = make([]int8, len(w))
	scales = make([]float32, oc)
	parallel.ForChunked(oc, packWorkers(len(w)), func(lo, hi int) {
		for o := lo; o < hi; o++ {
			row, qrow := w[o*kdim:(o+1)*kdim], q[o*kdim:(o+1)*kdim]
			m := MaxAbs(row)
			s := float32(1)
			if m > 0 && !math.IsInf(float64(m), 0) {
				s = m / QWeightMax
			}
			scales[o] = s
			quantizeRow(qrow, row, 1/s)
			if s < minNormal32 || math.IsInf(float64(m), 0) {
				for i, v := range qrow {
					qrow[i] = min(max(v, -QWeightMax), QWeightMax)
				}
			}
		}
	})
	return q, scales
}
