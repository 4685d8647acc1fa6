package tensor

import (
	"encoding/binary"
	"math"
	"slices"
)

// AppendF32LE appends vals to dst as little-endian IEEE-754 binary32 — the
// byte layout of a .dnnx initializer payload and of the predict wire's
// data_b64 field — and returns the extended slice.
func AppendF32LE(dst []byte, vals []float32) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 4*len(vals))[:n+4*len(vals)]
	out := dst[n:]
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return dst
}

// F32FromLE is AppendF32LE's inverse: it fills dst from the first
// 4*len(dst) bytes of src, which must hold at least that many.
func F32FromLE(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
