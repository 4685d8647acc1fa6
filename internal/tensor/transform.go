package tensor

import "fmt"

// FlipH mirrors an (N, C, H, W) tensor horizontally (left–right).
func FlipH(t *Tensor) *Tensor {
	n, c, h, w := dims4("FlipH input", t)
	out := New(n, c, h, w)
	forEach(n*c*h, func(lo, hi int) {
		for row := lo; row < hi; row++ {
			src := t.data[row*w : (row+1)*w]
			dst := out.data[row*w : (row+1)*w]
			for x := 0; x < w; x++ {
				dst[x] = src[w-1-x]
			}
		}
	})
	return out
}

// FlipV mirrors an (N, C, H, W) tensor vertically (top–bottom).
func FlipV(t *Tensor) *Tensor {
	n, c, h, w := dims4("FlipV input", t)
	out := New(n, c, h, w)
	forEach(n*c, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			for y := 0; y < h; y++ {
				src := t.data[(p*h+y)*w : (p*h+y+1)*w]
				dst := out.data[(p*h+(h-1-y))*w : (p*h+(h-1-y)+1)*w]
				copy(dst, src)
			}
		}
	})
	return out
}

// Rot90 rotates each (H, W) plane of an (N, C, H, W) tensor by 90°×k
// counter-clockwise. Square planes are required for k odd.
func Rot90(t *Tensor, k int) *Tensor {
	n, c, h, w := dims4("Rot90 input", t)
	k = ((k % 4) + 4) % 4
	switch k {
	case 0:
		return t.Clone()
	case 2:
		return FlipH(FlipV(t))
	}
	if h != w {
		panic(fmt.Sprintf("tensor: Rot90 with k=%d needs square planes, got %dx%d", k, h, w))
	}
	out := New(n, c, h, w)
	forEach(n*c, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			src := t.data[p*h*w : (p+1)*h*w]
			dst := out.data[p*h*w : (p+1)*h*w]
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if k == 1 { // counter-clockwise
						dst[(w-1-x)*w+y] = src[y*w+x]
					} else { // k == 3, clockwise
						dst[x*w+(h-1-y)] = src[y*w+x]
					}
				}
			}
		}
	})
	return out
}

// AddNoiseInPlace perturbs every element with N(0, std²) noise from rng —
// the sensor-noise augmentation for training robustness.
func AddNoiseInPlace(t *Tensor, rng *RNG, std float64) {
	for i := range t.data {
		t.data[i] += float32(rng.NormFloat64() * std)
	}
}
