package tensor

import (
	"math"
	"slices"
	"testing"

	"drainnas/internal/parallel"
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

// maxAbsRef is MaxAbs as a plain branchy loop: NaNs skipped, infinities
// saturating.
func maxAbsRef(xs []float32) float32 {
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

// quantizeWeightsRef is QuantizeWeightsPerChannel as one serial loop with
// its own rounding and the ±QWeightMax clamp applied to every row.
func quantizeWeightsRef(w []float32, oc, kdim int) ([]int8, []float32) {
	q, scales := make([]int8, len(w)), make([]float32, oc)
	for o := 0; o < oc; o++ {
		row := w[o*kdim : (o+1)*kdim]
		m := maxAbsRef(row)
		s := float32(1)
		if m > 0 && !math.IsInf(float64(m), 0) {
			s = m / QWeightMax
		}
		scales[o] = s
		inv := 1 / s
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
			q[o*kdim+i] = int8(r)
		}
	}
	return q, scales
}

// weightRefRows is a matrix of kdim-wide rows that test the edges of the
// weight quantizer: NaN first, in the middle and last; ±0 and all-zero
// rows (scale 1); ±Inf rows, whose scale is 1 and whose finite values clamp
// at ±QWeightMax, not ±QActMax; halfway values at scales 1 and 2; rows whose
// max-abs makes the scale subnormal or zero; and random rows.
func weightRefRows(kdim int) (w []float32, oc int) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	rng := NewRNG(23)
	var rows [][]float32
	row := func(fill func(i int) float32) {
		r := make([]float32, kdim)
		for i := range r {
			r[i] = fill(i)
		}
		rows = append(rows, r)
	}
	random := func(i int) float32 { return float32(rng.NormFloat64()) * 0.3 }
	row(func(i int) float32 { return []float32{nan, random(i)}[min(i, 1)] })
	row(func(i int) float32 {
		if i == kdim/2 {
			return nan
		}
		return random(i)
	})
	row(func(i int) float32 {
		if i == kdim-1 {
			return nan
		}
		return random(i)
	})
	row(func(i int) float32 { return nan })
	row(func(i int) float32 { return [2]float32{0, negZero}[i%2] })
	row(func(i int) float32 { return 0 })
	row(func(i int) float32 { return [4]float32{inf, 100, -250, 0.4}[i%4] })
	row(func(i int) float32 { return [4]float32{-inf, nan, 70, -64}[i%4] })
	row(func(i int) float32 { return [6]float32{63, 0.5, 1.5, -2.5, 62.5, -0.5}[i%6] })
	row(func(i int) float32 { return [6]float32{126, 1, 3, -5, 125, -127}[i%6] })
	row(func(i int) float32 { return [3]float32{1e-38, -7e-39, 3e-39}[i%3] })
	row(func(i int) float32 { return [3]float32{1e-44, -5e-45, 0}[i%3] })
	row(func(i int) float32 { return [2]float32{3e38, -1e38}[i%2] })
	for len(rows) < 16 {
		row(random)
	}
	for _, r := range rows {
		w = append(w, r...)
	}
	return w, len(rows)
}

func TestMaxAbsMatchesReference(t *testing.T) {
	for _, kdim := range []int{1, 3, 4, 5, 37, 64} {
		w, oc := weightRefRows(kdim)
		for o := 0; o < oc; o++ {
			row := w[o*kdim : (o+1)*kdim]
			if got, want := MaxAbs(row), maxAbsRef(row); math.Float32bits(got) != math.Float32bits(want) {
				t.Errorf("kdim %d row %d: MaxAbs = %v, want %v", kdim, o, got, want)
			}
		}
	}
	if got := MaxAbs(nil); math.Float32bits(got) != 0 {
		t.Errorf("MaxAbs(nil) = %v, want +0", got)
	}
}

// TestQuantizeWeightsMatchesReference holds QuantizeWeightsPerChannel to
// the serial reference byte for byte, on the edge rows and on a matrix big
// enough to split across workers, at one worker and at five.
func TestQuantizeWeightsMatchesReference(t *testing.T) {
	prev := parallel.DefaultWorkers
	defer func() { parallel.DefaultWorkers = prev }()
	rng := NewRNG(29)
	big := RandNormal(rng, 0.05, 67, 2053).Data()
	big[5*2053+17] = float32(math.NaN())
	big[66*2053] = float32(math.Inf(-1))
	type matrix struct {
		w        []float32
		oc, kdim int
	}
	cases := []matrix{{big, 67, 2053}}
	for _, kdim := range []int{1, 5, 15, 16, 17, 37, 64} {
		w, oc := weightRefRows(kdim)
		cases = append(cases, matrix{w, oc, kdim})
	}
	for _, workers := range []int{1, 5} {
		parallel.DefaultWorkers = workers
		for _, c := range cases {
			q, scales := QuantizeWeightsPerChannel(c.w, c.oc, c.kdim)
			wantQ, wantScales := quantizeWeightsRef(c.w, c.oc, c.kdim)
			for o := range scales {
				if math.Float32bits(scales[o]) != math.Float32bits(wantScales[o]) {
					t.Fatalf("workers %d %dx%d: scale[%d] = %v, want %v", workers, c.oc, c.kdim, o, scales[o], wantScales[o])
				}
			}
			for i := range q {
				if q[i] != wantQ[i] {
					t.Fatalf("workers %d %dx%d: q[%d] (row %d, w %v) = %d, want %d",
						workers, c.oc, c.kdim, i, i/c.kdim, c.w[i], q[i], wantQ[i])
				}
			}
		}
	}
}

// TestWeightPassesIndependentOfWorkers holds every one-time pass over a
// layer's weights — the float A panels, the int8 panels, the Winograd
// filters and the per-channel quantization — to the same bytes at one
// worker and at five, on shapes whose rows are no multiple of either
// micro-tile's rows and whose k is no multiple of gemmKC or of 4.
func TestWeightPassesIndependentOfWorkers(t *testing.T) {
	prev := parallel.DefaultWorkers
	defer func() { parallel.DefaultWorkers = prev }()
	defer disableScratchPool()()
	const m, k, c = 67, 2053, 231 // k = c·9 − 26
	parallel.DefaultWorkers = 5
	if packWorkers(m*k) < 5 || packWorkers(m*c*9) < 5 {
		t.Fatalf("shapes too small to split five ways: %d and %d workers", packWorkers(m*k), packWorkers(m*c*9))
	}
	rng := NewRNG(31)
	w := RandNormal(rng, 0.1, m, k).Data()
	w9 := RandNormal(rng, 0.1, m, c*9).Data()
	type result struct {
		pa     []float32
		qa     []int8
		wino   []float32
		q      []int8
		scales []float32
	}
	run := func(workers int) result {
		parallel.DefaultWorkers = workers
		q, scales := QuantizeWeightsPerChannel(w, m, k)
		wp := &winoPack{src: w9, oc: m, c: c}
		wp.panels()
		return result{
			pa: packA(w, k, m, k).buf, qa: packQA(q, m, k).buf,
			wino: wp.buf, q: q, scales: scales,
		}
	}
	one, five := run(1), run(5)
	f32Equal := func(name string, a, b []float32) {
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d values", name, len(a), len(b))
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("%s[%d]: %v at one worker, %v at five", name, i, a[i], b[i])
			}
		}
	}
	f32Equal("packA", one.pa, five.pa)
	f32Equal("winoPack", one.wino, five.wino)
	f32Equal("scales", one.scales, five.scales)
	if !slices.Equal(one.qa, five.qa) {
		t.Fatal("packQA differs between one worker and five")
	}
	if !slices.Equal(one.q, five.q) {
		t.Fatal("QuantizeWeightsPerChannel differs between one worker and five")
	}
}
