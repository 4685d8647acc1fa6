package tensor

import "fmt"

// QIm2ColRows is the test-only reference lowering of the int8 convolution
// driver: output rows [oyLo, oyHi) of one s8 (C,H,W) image as a dense
// (C·KH·KW) × ((oyHi−oyLo)·OW) column matrix, the s8 twin of Im2Col.
// Out-of-bounds taps contribute 0 — exact, since s8 activations are
// zero-point-0. The driver itself packs from the image and never builds
// this matrix; the tests hold it to it.
func QIm2ColRows(src []int8, c, h, w, kh, kw, stride, pad, oyLo, oyHi int, dst []int8) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	if oyLo < 0 || oyHi > oh || oyLo > oyHi {
		panic(fmt.Sprintf("tensor: QIm2ColRows row range [%d,%d) outside [0,%d)", oyLo, oyHi, oh))
	}
	cols := (oyHi - oyLo) * ow
	if len(dst) != c*kh*kw*cols {
		panic(fmt.Sprintf("tensor: QIm2ColRows dst length %d, want %d", len(dst), c*kh*kw*cols))
	}
	row := 0
	for ch := 0; ch < c; ch++ {
		plane := src[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				drow := dst[row*cols : (row+1)*cols]
				row++
				i := 0
				for oy := oyLo; oy < oyHi; oy++ {
					sy := oy*stride - pad + ky
					for ox := 0; ox < ow; ox++ {
						sx := ox*stride - pad + kx
						drow[i] = 0
						if sy >= 0 && sy < h && sx >= 0 && sx < w {
							drow[i] = plane[sy*w+sx]
						}
						i++
					}
				}
			}
		}
	}
}
