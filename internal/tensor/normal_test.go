package tensor

import (
	"math"
	"testing"
)

// checkNormFloat64s fills n deviates in bulk and by NormFloat64 from two
// copies of one generator that has already made pre NormFloat64 calls, and
// requires the same bits and the same final generator, spare included.
func checkNormFloat64s(t *testing.T, seed uint64, pre, n int) {
	t.Helper()
	bulk, ref := NewRNG(seed), NewRNG(seed)
	for i := 0; i < pre; i++ {
		bulk.NormFloat64()
		ref.NormFloat64()
	}
	got := make([]float64, n)
	bulk.NormFloat64s(got)
	for i := range got {
		if want := ref.NormFloat64(); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("seed %d pre %d n %d: value %d = %v (%#x), NormFloat64 gives %v (%#x)",
				seed, pre, n, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
	if bulk.state != ref.state || bulk.hasSpare != ref.hasSpare ||
		(ref.hasSpare && math.Float64bits(bulk.spare) != math.Float64bits(ref.spare)) {
		t.Fatalf("seed %d pre %d n %d: generator ends at {%#x %v %v}, NormFloat64 leaves {%#x %v %v}",
			seed, pre, n, bulk.state, bulk.hasSpare, bulk.spare, ref.state, ref.hasSpare, ref.spare)
	}
}

// TestNormFloat64sMatchesNormFloat64 holds the bulk fill to its contract on
// short fills, every block boundary ±1 pair and a million deviates, with a
// spare pending or not.
func TestNormFloat64sMatchesNormFloat64(t *testing.T) {
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, pairs := range []int{normBlock - 1, normBlock, normBlock + 1, 2*normBlock - 1, 2 * normBlock, 2*normBlock + 1} {
		lengths = append(lengths, 2*pairs-1, 2*pairs, 2*pairs+1)
	}
	for _, seed := range []uint64{1, 7, 0x9E3779B97F4A7C15, 1 << 63} {
		for pre := 0; pre <= 2; pre++ {
			for _, n := range lengths {
				checkNormFloat64s(t, seed, pre, n)
			}
		}
	}
	for pre := 0; pre <= 2; pre++ {
		checkNormFloat64s(t, 42, pre, 1_000_000)
	}
}

// TestRandNormalMatchesNormFloat64 pins RandNormal to its scalar definition,
// float32(NormFloat64()·std) in order, across a stack-buffer boundary.
func TestRandNormalMatchesNormFloat64(t *testing.T) {
	for _, n := range []int{1, 3, 2*normBlock - 1, 2*normBlock + 1, 5000} {
		got := RandNormal(NewRNG(11), 0.37, n).Data()
		ref := NewRNG(11)
		for i, g := range got {
			if want := float32(ref.NormFloat64() * 0.37); math.Float32bits(g) != math.Float32bits(want) {
				t.Fatalf("n %d: value %d = %v, want %v", n, i, g, want)
			}
		}
	}
}

// FuzzNormFloat64s compares the bulk fill with the NormFloat64 loop for any
// seed, 0–2 earlier draws and length up to 4096.
func FuzzNormFloat64s(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(1))
	f.Add(uint64(7), uint8(1), uint16(2*normBlock+1))
	f.Add(uint64(1<<63), uint8(2), uint16(4096))
	f.Fuzz(func(t *testing.T, seed uint64, pre uint8, n uint16) {
		checkNormFloat64s(t, seed, int(pre%3), int(n)%4097)
	})
}

// BenchmarkNormFloat64s fills a million deviates in bulk and, beside it, by
// the per-element NormFloat64 loop the bulk fill replaces.
func BenchmarkNormFloat64s(b *testing.B) {
	dst := make([]float64, 1<<20)
	b.Run("bulk", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			r.NormFloat64s(dst)
		}
	})
	b.Run("loop", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			for k := range dst {
				dst[k] = r.NormFloat64()
			}
		}
	})
}
