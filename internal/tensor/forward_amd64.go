//go:build amd64

package tensor

// The fp32 forward's AVX2 kernels beside the GEMM (forward_amd64.s). Each is
// the Go loop it stands in for lane for lane; that loop stays as the path
// without AVX2 and as the kernel's test oracle.

// packRowsS2 is packPanel's stride-2 mover. Row r of rows moves from
// src[r·srcStride:] to dst[r·dstStride:]: lane i < 16 gets src[2i] where
// bit i of keep is set and 0 where it is clear, and only the lanes set in
// store are written. Each row reads src[0:32], whatever the masks.
//
//go:noescape
func packRowsS2(dst, src *float32, dstStride, srcStride, rows int, store, keep uint32)

// poolColsF32 is the pool's column pass: dst[i] = the max builtin over
// src[r·stride + i] for r < rows, i < n; n is a positive multiple of 8 and
// rows is at least 1.
//
//go:noescape
func poolColsF32(dst, src *float32, n, rows, stride int)

// poolColsI8 is poolColsF32 for int8 values; n is a positive multiple of
// 32.
//
//go:noescape
func poolColsI8(dst, src *int8, n, rows, stride int)

// poolRowF32 is the pool's row pass: dst[i] = the max builtin over
// m[stride·i + kx] for kx < kernel, i < n; n is a positive multiple of 8,
// stride is 1 or 2. At stride 2 it reads one value past the last it uses,
// m[2n + kernel − 2].
//
//go:noescape
func poolRowF32(dst, m *float32, n, kernel, stride int)

// storeTile is the conv epilogue of rows output channels, lanes [0, n) of
// each, n ≤ 16: row r reads src[16r:], bias[r] and, when join is not nil,
// join[r·dstStride:], and writes dst[r·dstStride:] with store's arithmetic.
// It reads all sixteen lanes of each src row.
//
//go:noescape
func storeTile(dst, src, join, bias *float32, dstStride, rows, n int, relu bool)

// winoInput is the Winograd input transform (winograd.go) of up to eight
// tiles of one tile row, every channel. src + off is column x0, row y0 of
// channel 0, the top left of the first tile's 4×4 patch; the patch of tile
// t starts 2t columns on, channel ch ch·hw further, and row r of the patch
// is read where bit r of rows is set and is zero where it is clear. Of a
// patch row's eighteen columns [x0, x0+18) those at [x0+lo, x0+hi) are read,
// the rest are zero. Point ξ of channel ch lands at dst[ξ·xiStride +
// 16·ch + t] for the n tiles t < n; nothing else is written.
//
//go:noescape
func winoInput(dst, src *float32, off, w, hw, chans, xiStride, lo, hi, n, rows int)

// winoOutput is the Winograd output transform and the conv epilogue of rows
// output channels, up to eight tiles of one tile row: channel r reads point
// ξ of tile t at m[96ξ + 16r + t], bias[r] and, when join is not nil,
// join[r·ohw:] as dst is laid out, and writes the tiles' 2×2 outputs to
// dst[r·ohw:] with store's arithmetic — the first cols values of output row
// 0 and, when pairs is 2, of row 1, ow further on.
//
//go:noescape
func winoOutput(dst, m, join, bias *float32, ohw, ow, rows, cols, pairs int, relu bool)

// forwardAVX2 selects the kernels above; init sets it where the GEMM kernel
// runs (AVX2 and FMA).
var forwardAVX2 bool

func init() { forwardAVX2 = cpuHasAVX2FMA() }
