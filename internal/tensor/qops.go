package tensor

import (
	"fmt"
	"math"
)

// Int8 elementwise and pooling ops for quantized inference plans. All of
// them work on flat s8 buffers (zero-point 0) with explicit dims, because
// the quantized arena stores raw slabs rather than *Tensor values.

// QAddInto writes dst[i] = clamp(round(ra·a[i] + rb·b[i])), optionally
// clamped below at 0 (fused ReLU). ra and rb are the precomputed scale
// ratios sa/so and sb/so that re-express both addends on the output scale —
// the residual Add of a quantized plan, where the two branches generally
// carry different activation scales. dst may alias a or b.
func QAddInto(dst, a, b []int8, ra, rb float32, relu bool) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("tensor: QAddInto length mismatch %d %d %d", len(dst), len(a), len(b)))
	}
	lo := float64(-QActMax)
	if relu {
		lo = 0
	}
	for i := range dst {
		v := math.RoundToEven(float64(ra*float32(a[i]) + rb*float32(b[i])))
		if v < lo {
			v = lo
		} else if v > QActMax {
			v = QActMax
		}
		dst[i] = int8(v)
	}
}

// QReLUInto writes dst[i] = max(0, src[i]). With zero-point-0 activations a
// standalone quantized ReLU is a plain clamp and preserves the scale.
func QReLUInto(dst, src []int8) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: QReLUInto length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		if v < 0 {
			v = 0
		}
		dst[i] = v
	}
}

// QMaxPool2DInto pools the s8 (N, C, H, W) input into the (N, C, OH, OW)
// output with the float MaxPool2DInto semantics: padding taps are excluded
// from the max, and a window with no valid taps yields 0. Quantization is
// monotone, so pooling the s8 values directly matches pooling in float and
// the op needs no rescaling — input and output share a scale.
func QMaxPool2DInto(out, in []int8, n, c, h, w, kernel, stride, pad int) {
	oh := ConvOut(h, kernel, stride, pad)
	ow := ConvOut(w, kernel, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: QMaxPool2DInto produces empty output for input %dx%d k=%d s=%d p=%d", h, w, kernel, stride, pad))
	}
	if len(in) != n*c*h*w || len(out) != n*c*oh*ow {
		panic(fmt.Sprintf("tensor: QMaxPool2DInto buffer lengths %d/%d, want %d/%d", len(in), len(out), n*c*h*w, n*c*oh*ow))
	}
	for p := 0; p < n*c; p++ {
		maxPoolPlane(out[p*oh*ow:(p+1)*oh*ow], in[p*h*w:(p+1)*h*w], h, w, oh, ow, kernel, stride, pad)
	}
}

// QGlobalAvgPoolInto averages each s8 (H, W) plane into one int8 output
// value on a new scale: dst[p] = clamp(round(ratio·mean(plane p))) with
// ratio = inScale/outScale. The int32 plane sum is exact (H·W·127 is far
// inside int32 for any plan shape).
func QGlobalAvgPoolInto(dst, src []int8, n, c, h, w int, ratio float32) {
	if len(src) != n*c*h*w || len(dst) != n*c {
		panic(fmt.Sprintf("tensor: QGlobalAvgPoolInto buffer lengths %d/%d, want %d/%d", len(src), len(dst), n*c*h*w, n*c))
	}
	inv := float64(ratio) / float64(h*w)
	for p := 0; p < n*c; p++ {
		plane := src[p*h*w : (p+1)*h*w]
		s := int32(0)
		for _, v := range plane {
			s += int32(v)
		}
		v := math.RoundToEven(float64(s) * inv)
		if v < -QActMax {
			v = -QActMax
		} else if v > QActMax {
			v = QActMax
		}
		dst[p] = int8(v)
	}
}

// QGlobalAvgPoolFloatInto averages each s8 (H, W) plane into a float32
// output — the dequantizing variant for plans whose terminal op is the
// global pool itself. scale is the input activation scale.
func QGlobalAvgPoolFloatInto(dst []float32, src []int8, n, c, h, w int, scale float32) {
	if len(src) != n*c*h*w || len(dst) != n*c {
		panic(fmt.Sprintf("tensor: QGlobalAvgPoolFloatInto buffer lengths %d/%d, want %d/%d", len(src), len(dst), n*c*h*w, n*c))
	}
	inv := float64(sanitizeScale(scale)) / float64(h*w)
	for p := 0; p < n*c; p++ {
		plane := src[p*h*w : (p+1)*h*w]
		s := int32(0)
		for _, v := range plane {
			s += int32(v)
		}
		dst[p] = float32(float64(s) * inv)
	}
}
