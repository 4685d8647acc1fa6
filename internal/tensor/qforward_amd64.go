//go:build amd64

package tensor

// The int8 forward's AVX2 kernels around its micro-kernel
// (qforward_amd64.s). Each is the Go loop it stands in for byte for byte;
// that loop stays as the path without AVX2 and as the kernel's test oracle.

// packQRun packs one column run of packQPanels, every k-quad of it. dst is
// the run's first lane in its panel's first quad; quad q lands 64·q bytes
// on. Tap (ky, kx) of channel ch of column i reads src[origin + ch·hw +
// ky·w + kx + i·stride] where bit i of masks[ky·kw + kx] is set and 0
// where it is clear; taps run kx fastest, then ky, then the channel, and
// the k padding of the last quad reads 0. wskip is w − kw, the step from a
// kernel row's last tap to the next row's first. Bytes are offset to u8,
// and only lanes [0, store) of each quad are written: store may pass the
// run to take a tail panel's unused lanes, whose masks are clear. A tap
// whose 16·stride-byte read would leave src[0 : lim+16·stride] gathers its
// set lanes one by one; stride is 1 or 2.
//
//go:noescape
func packQRun(dst *uint8, src *int8, lim, origin, hw, wskip, kw int, masks *int32, taps, chans, stride, store int)

// qstoreTile is the int8 conv's requantize epilogue of rows output
// channels, lanes [0, n) of each, n ≤ 16: row r reads src[16r:], comp[r],
// mult[r] and add[r] and writes dst[r·dstStride:] with qconvCall.tile's
// arithmetic, ReLU as lo = 0 and none as lo = −QActMax. It reads all
// sixteen lanes of each src row.
//
//go:noescape
func qstoreTile(dst *int8, src, comp *int32, mult, add *float32, dstStride, rows, n int, lo float32)

// qaddBlocks is QAddInto's loop over n values, n a positive multiple of
// 16, with the lower clamp lo.
//
//go:noescape
func qaddBlocks(dst, a, b *int8, n int, ra, rb, lo float32)

// quantizeBlocks is quantizeRow's loop over n values, n a positive
// multiple of 16, with the reciprocal scale inv.
//
//go:noescape
func quantizeBlocks(dst *int8, src *float32, n int, inv float32)

// qForwardAVX2 selects the kernels above; init sets it where the int8
// micro-kernel runs on AVX2.
var qForwardAVX2 bool

func init() { qForwardAVX2 = cpuHasAVX2FMA() }
