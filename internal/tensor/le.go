package tensor

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
	"unsafe"
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

// hostLittleEndian reports whether a float32's memory is its little-endian
// encoding; a test clears it to run ReadF32LE's portable path.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// ReadF32LE fills dst from the next 4*len(dst) bytes of r, little-endian
// IEEE-754 binary32 (F32FromLE's layout), with io.ReadFull's errors: io.EOF
// when r had no bytes, io.ErrUnexpectedEOF when it ran out part way. On a
// little-endian host that layout is dst's memory, so the bytes are read
// straight into it; elsewhere they pass through a 64 KiB buffer and
// F32FromLE.
func ReadF32LE(r io.Reader, dst []float32) error {
	if hostLittleEndian {
		_, err := io.ReadFull(r, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 4*len(dst)))
		return err
	}
	buf := make([]byte, 4*min(len(dst), 16<<10))
	for read := 0; read < len(dst); {
		n := min(len(dst)-read, len(buf)/4)
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			if err == io.EOF && read > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		F32FromLE(dst[read:read+n], buf)
		read += n
	}
	return nil
}
