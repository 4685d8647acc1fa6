package tensor

import (
	"math"
	"testing"
)

// TestNormalKernelMatchesLog holds the kernel's logarithm to math.Log bit for
// bit: on every accepted s among the first 10⁷ polar candidates of three
// seeds, and on the inputs where a replica would slip — f1 at √2/2 and its
// neighbours, the smallest s two draws can make (2⁻¹⁰⁴), the largest below
// 1, and powers of two.
func TestNormalKernelMatchesLog(t *testing.T) {
	if !normAVX2 {
		t.Skip("no AVX2 kernel on this CPU")
	}
	check := func(x []float64) {
		t.Helper()
		for len(x)%4 != 0 {
			x = append(x, 0.5)
		}
		got := make([]float64, len(x))
		normLog4(&got[0], &x[0], len(x))
		for i, v := range x {
			if want := math.Log(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("ln %v (%#x) = %v (%#x), math.Log gives %v (%#x)",
					v, math.Float64bits(v), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}

	// f1 = √2/2 and its neighbours at every exponent of the normal range:
	// LOG4 is archLog for any positive normal number, and the select's ≤
	// only shows outside (0, 1) — at √2/2·2³², where < would round the
	// other way.
	const hsqrt2 = 0x3FE6A09E667F3BCD
	var edge []float64
	for e := -1021; e <= 1024; e++ {
		for _, bits := range []uint64{hsqrt2 - 1, hsqrt2, hsqrt2 + 1} {
			edge = append(edge, math.Ldexp(math.Float64frombits(bits), e))
		}
		edge = append(edge, math.Ldexp(1, e-1))
	}
	edge = append(edge, 0x1p-104, math.Nextafter(0x1p-104, 1), math.Nextafter(1, 0))
	check(edge)

	candidates := 10_000_000
	if raceEnabled {
		candidates /= 10
	}
	for _, seed := range []uint64{1, 2, 3} {
		r := NewRNG(seed)
		block := make([]float64, 0, 1<<14)
		for c := 0; c < candidates; c++ {
			u := 2*r.Float64() - 1
			v := 2*r.Float64() - 1
			if s := u*u + v*v; s > 0 && s < 1 {
				block = append(block, s)
			}
			if len(block) == cap(block) || c == candidates-1 {
				check(block)
				block = block[:0]
			}
		}
	}
}
