package tensor

import "math"

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
// NaNs are ignored; an infinity saturates the result.
func MaxAbs(xs []float32) float32 {
	m := float32(0)
	for _, v := range xs {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
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
	inv := 1 / sanitizeScale(scale)
	for i, v := range src {
		dst[i] = quantizeOne(v * inv)
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

// QuantizeWeightsPerChannel quantizes an oc×kdim row-major weight matrix to
// int8 with one symmetric scale per output channel (row): scale[o] =
// maxabs(row o)/QWeightMax, q = clamp(round(w/scale[o])). An all-zero row
// gets scale 1 so dequantization stays exact (0·1 = 0).
func QuantizeWeightsPerChannel(w []float32, oc, kdim int) (q []int8, scales []float32) {
	if len(w) != oc*kdim {
		panic("tensor: QuantizeWeightsPerChannel length mismatch")
	}
	q = make([]int8, len(w))
	scales = make([]float32, oc)
	for o := 0; o < oc; o++ {
		row := w[o*kdim : (o+1)*kdim]
		m := MaxAbs(row)
		s := float32(1)
		if m > 0 && !math.IsInf(float64(m), 0) {
			s = m / QWeightMax
		}
		scales[o] = s
		inv := 1 / s
		qrow := q[o*kdim : (o+1)*kdim]
		for i, v := range row {
			r := math.RoundToEven(float64(v * inv))
			switch {
			case math.IsNaN(r):
				r = 0
			case r > QWeightMax:
				r = QWeightMax
			case r < -QWeightMax:
				r = -QWeightMax
			}
			qrow[i] = int8(r)
		}
	}
	return q, scales
}
