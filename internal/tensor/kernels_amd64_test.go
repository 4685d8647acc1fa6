//go:build amd64

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// kernelSpecials are the float values on which two kernels could part ways
// while agreeing on ordinary numbers: NaNs of several payloads and both
// signs (one signaling), ±Inf, ±0, subnormals of either sign, and values
// large enough that products overflow or small enough that they underflow.
var kernelSpecials = []float32{
	float32(math.NaN()), math.Float32frombits(0xFFC00001), math.Float32frombits(0x7FA00002),
	float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x80000001), math.Float32frombits(0x007FFFFF),
	3e38, -3e38, 1e-30, -1e-30,
}

// saltedFloats returns n random normals of which about one in eight is a
// kernelSpecials value.
func saltedFloats(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		if r.Intn(8) == 0 {
			v[i] = kernelSpecials[r.Intn(len(kernelSpecials))]
		} else {
			v[i] = float32(r.NormFloat64())
		}
	}
	return v
}

// TestAVX512KernelMatchesAVX2 holds the AVX-512 float kernel to the AVX2
// one bit for bit, NaN payloads included, on random packed panels salted
// with specials in both operands: kc 0, 1, 2, 3 and gemmKC, starting fresh
// and resuming a tile from cbuf. A panel of NaN against NaN in every
// payload pairing pins which factor's NaN a lane returns.
func TestAVX512KernelMatchesAVX2(t *testing.T) {
	if !cpuHasAVX512(false) {
		t.Skip("no AVX-512 on this host")
	}
	r := rand.New(rand.NewSource(512))
	check := func(name string, a, b, start []float32, kc int, acc bool) {
		t.Helper()
		want, got := make([]float32, 96), make([]float32, 96)
		copy(want, start)
		copy(got, start)
		kernelAVX2(a, b, want, kc, acc)
		kernelAVX512(a, b, got, kc, acc)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s kc=%d acc=%v: tile[%d] = %#x (avx512), want %#x (avx2)",
					name, kc, acc, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	for _, kc := range []int{0, 1, 2, 3, gemmKC} {
		for trial := 0; trial < 20; trial++ {
			n := max(kc, 1)
			a, b, start := saltedFloats(r, 6*n), saltedFloats(r, 16*n), saltedFloats(r, 96)
			check("salted", a, b, start, kc, false)
			check("salted", a, b, start, kc, true)
		}
	}
	nans := []float32{float32(math.NaN()), math.Float32frombits(0xFFC00001), math.Float32frombits(0x7FA00002)}
	for _, na := range nans {
		for _, nb := range nans {
			a, b := make([]float32, 6), make([]float32, 16)
			for i := range a {
				a[i] = na
			}
			for i := range b {
				b[i] = nb
			}
			check("nan×nan", a, b, make([]float32, 96), 1, true)
		}
	}
}

// TestVNNIKernelMatchesAVX2 holds the VNNI int8 kernel to the AVX2 one and
// to the scalar reference, tile for tile, at every kq from 0 to 9 and at
// longer runs of both parities, with weights salted to ±QWeightMax and
// activations across 0–255, plus the extreme panels: every weight at
// +QWeightMax or −QWeightMax against every activation at 255.
func TestVNNIKernelMatchesAVX2(t *testing.T) {
	if !cpuHasAVX512(true) {
		t.Skip("no AVX512_VNNI on this host")
	}
	r := rand.New(rand.NewSource(11))
	check := func(name string, a []int8, b []uint8, kq int) {
		t.Helper()
		want, avx2, got := make([]int32, qMR*qNR), make([]int32, qMR*qNR), make([]int32, qMR*qNR)
		for i := range got {
			avx2[i], got[i] = 7, 7 // stale tiles must be overwritten
		}
		qkernelScalar4x16(a, b, want, kq)
		qkernelAVX2(a, b, avx2, kq)
		qkernelVNNI(a, b, got, kq)
		for i := range want {
			if got[i] != avx2[i] || got[i] != want[i] {
				t.Fatalf("%s kq=%d: tile[%d] = %d (vnni), %d (avx2), want %d (scalar)", name, kq, i, got[i], avx2[i], want[i])
			}
		}
	}
	for _, kq := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 72, 288} {
		n := max(kq, 1)
		a := randQ8(r, n*qMR*4, QWeightMax)
		for i := range a {
			if r.Intn(4) == 0 {
				a[i] = QWeightMax * int8(1-2*r.Intn(2))
			}
		}
		b := make([]uint8, n*qNR*4)
		for i := range b {
			b[i] = uint8(r.Intn(256))
			if r.Intn(4) == 0 {
				b[i] = 255 * uint8(r.Intn(2))
			}
		}
		check("salted", a, b, kq)
		for _, w := range []int8{QWeightMax, -QWeightMax} {
			for i := range a {
				a[i] = w
			}
			for i := range b {
				b[i] = 255
			}
			check("extreme", a, b, kq)
		}
	}
}
