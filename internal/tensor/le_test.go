package tensor

import (
	"bytes"
	"io"
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

// TestReadF32LE holds both paths of ReadF32LE — straight into the slice's
// memory and through the buffer — to F32FromLE bit for bit, NaN payloads
// included, across the buffer's boundary, and to io.ReadFull's errors.
func TestReadF32LE(t *testing.T) {
	rng := NewRNG(5)
	raw := make([]byte, 4*(16<<10)+4*37)
	for i := range raw {
		raw[i] = byte(rng.Uint64())
	}
	raw = append(raw, 0x01, 0x00, 0xc0, 0x7f) // a NaN with payload bits
	want := make([]float32, len(raw)/4)
	F32FromLE(want, raw)
	for _, little := range []bool{true, false} {
		prev := hostLittleEndian
		hostLittleEndian = little && prev
		got := make([]float32, len(want))
		if err := ReadF32LE(bytes.NewReader(raw), got); err != nil {
			t.Fatalf("little-endian path %v: %v", hostLittleEndian, err)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("little-endian path %v: value %d is %x, want %x", hostLittleEndian, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
		if err := ReadF32LE(bytes.NewReader(raw[:len(raw)-1]), got); err != io.ErrUnexpectedEOF {
			t.Errorf("little-endian path %v: one byte short: %v, want io.ErrUnexpectedEOF", hostLittleEndian, err)
		}
		if err := ReadF32LE(bytes.NewReader(raw[:4*(16<<10)]), got); err != io.ErrUnexpectedEOF {
			t.Errorf("little-endian path %v: short by a whole buffer: %v, want io.ErrUnexpectedEOF", hostLittleEndian, err)
		}
		if err := ReadF32LE(bytes.NewReader(nil), got); err != io.EOF {
			t.Errorf("little-endian path %v: no bytes: %v, want io.EOF", hostLittleEndian, err)
		}
		if err := ReadF32LE(bytes.NewReader(nil), nil); err != nil {
			t.Errorf("little-endian path %v: no values: %v", hostLittleEndian, err)
		}
		hostLittleEndian = prev
	}
}
