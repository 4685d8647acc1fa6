package tensor

import (
	"math"
	"testing"
)

func TestActScaleDegenerate(t *testing.T) {
	// 1e-44/QActMax underflows to 0 and 1e-42/QActMax to a subnormal whose
	// reciprocal overflows: neither may reach a divisor.
	for _, m := range []float32{0, -1, float32(math.NaN()), float32(math.Inf(1)), 1e-44, 1e-42} {
		if s := ActScale(m); s != 1 {
			t.Errorf("ActScale(%v) = %v, want 1", m, s)
		}
	}
	if s := ActScale(127); s != 1 {
		t.Errorf("ActScale(127) = %v, want 1", s)
	}
	if s := ActScale(254); s != 2 {
		t.Errorf("ActScale(254) = %v, want 2", s)
	}
}

func TestQuantizeRoundTripBound(t *testing.T) {
	rng := NewRNG(11)
	src := RandNormal(rng, 2.5, 1024).Data()
	scale := ActScale(MaxAbs(src))
	q := make([]int8, len(src))
	back := make([]float32, len(src))
	QuantizeInto(q, src, scale)
	DequantizeInto(back, q, scale)
	half := float64(scale) * 0.5000001
	for i, v := range src {
		if d := math.Abs(float64(v - back[i])); d > half {
			t.Fatalf("round-trip error %g at %d exceeds scale/2 = %g (v=%g q=%d)", d, i, half, v, q[i])
		}
	}
}

func TestQuantizeWeightsPerChannel(t *testing.T) {
	rng := NewRNG(3)
	const oc, kdim = 5, 37
	w := RandNormal(rng, 0.4, oc, kdim).Data()
	// Make one row all-zero and give another a dominant outlier.
	for i := 0; i < kdim; i++ {
		w[2*kdim+i] = 0
	}
	w[4*kdim+7] = 50

	q, scales := QuantizeWeightsPerChannel(w, oc, kdim)
	for o := 0; o < oc; o++ {
		row := w[o*kdim : (o+1)*kdim]
		m := MaxAbs(row)
		want := float32(1)
		if m > 0 {
			want = m / QWeightMax
		}
		if scales[o] != want {
			t.Fatalf("row %d scale = %v, want %v", o, scales[o], want)
		}
		for i, v := range row {
			got := q[o*kdim+i]
			if got > QWeightMax || got < -QWeightMax {
				t.Fatalf("row %d q[%d] = %d outside ±%d", o, i, got, QWeightMax)
			}
			if d := math.Abs(float64(v) - float64(scales[o])*float64(got)); d > float64(scales[o])*0.5000001 {
				t.Fatalf("row %d dequant error %g exceeds half-scale", o, d)
			}
		}
	}
}

// FuzzQuantizeRoundTrip feeds adversarial values and scales through the
// quantize/dequantize pair: the helpers must never panic or emit NaN for
// usable inputs, and in-range values must reconstruct within half the
// effective scale.
func FuzzQuantizeRoundTrip(f *testing.F) {
	f.Add(float32(0.5), float32(0.01))
	f.Add(float32(-3.2), float32(0))
	f.Add(float32(1e30), float32(-1))
	f.Add(float32(math.Inf(1)), float32(math.NaN()))
	f.Add(float32(127.49), float32(1))
	f.Fuzz(func(t *testing.T, v, scale float32) {
		src := []float32{v}
		q := make([]int8, 1)
		back := make([]float32, 1)
		QuantizeInto(q, src, scale)
		DequantizeInto(back, q, scale)

		if q[0] > QActMax || q[0] < -QActMax {
			t.Fatalf("q = %d outside ±%d", q[0], QActMax)
		}
		eff := float64(sanitizeScale(scale))
		if math.IsNaN(float64(back[0])) {
			t.Fatalf("dequantize produced NaN for v=%g scale=%g", v, scale)
		}
		if math.IsNaN(float64(v)) {
			if q[0] != 0 {
				t.Fatalf("NaN quantized to %d, want 0", q[0])
			}
			return
		}
		av := math.Abs(float64(v))
		if av <= eff*QActMax && !math.IsInf(float64(v), 0) {
			// Half-scale rounding bound, padded for the float32 divide.
			bound := eff*0.5 + 1e-6*(av+eff)
			if d := math.Abs(float64(v) - float64(back[0])); d > bound {
				t.Fatalf("round-trip error %g > %g for v=%g scale=%g (eff %g, q %d)", d, bound, v, scale, eff, q[0])
			}
		} else if abs := int8(QActMax); q[0] != abs && q[0] != -abs {
			t.Fatalf("out-of-range v=%g quantized to %d, want saturation at ±%d (scale %g)", v, q[0], QActMax, eff)
		}
	})
}
