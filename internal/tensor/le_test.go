package tensor

import (
	"bytes"
	"math"
	"testing"
)

func TestF32LERoundTrip(t *testing.T) {
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -2.5, math.MaxFloat32, math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), math.Float32frombits(0x7fc00001)}
	prefix := []byte{0xAA}
	le := AppendF32LE(prefix, vals)
	if len(le) != 1+4*len(vals) || le[0] != 0xAA {
		t.Fatalf("AppendF32LE kept %d bytes of a 1-byte prefix + %d values", len(le), len(vals))
	}
	if want := []byte{0x00, 0x00, 0x80, 0x3f}; !bytes.Equal(le[1+4*2:1+4*3], want) {
		t.Fatalf("1.0 packed as % x, want % x", le[9:13], want)
	}
	got := make([]float32, len(vals))
	F32FromLE(got, le[1:])
	for i := range vals {
		if math.Float32bits(got[i]) != math.Float32bits(vals[i]) {
			t.Errorf("value %d: %x, want %x", i, math.Float32bits(got[i]), math.Float32bits(vals[i]))
		}
	}
}
