package tensor

import (
	"math"
	"math/rand"
	"testing"

	"drainnas/internal/parallel"
)

// randQ8 fills a fresh s8 slice with uniform values in [-bound, bound].
func randQ8(r *rand.Rand, n, bound int) []int8 {
	xs := make([]int8, n)
	for i := range xs {
		xs[i] = int8(r.Intn(2*bound+1) - bound)
	}
	return xs
}

// qNaive computes the m×n int32 reference product of the s8 matrices
// w (m×k) and b (k×n, leading dimension ldb).
func qNaive(w []int8, b []int8, ldb, m, k, n int) []int32 {
	out := make([]int32, m*n)
	for r := 0; r < m; r++ {
		for j := 0; j < n; j++ {
			s := int32(0)
			for kk := 0; kk < k; kk++ {
				s += int32(w[r*k+kk]) * int32(b[kk*ldb+j])
			}
			out[r*n+j] = s
		}
	}
	return out
}

// TestQGemmPackedParity drives the packed path (packQA, packQPanels,
// qKernel) over edge shapes and checks the offset-compensated tiles against
// the naive int32 product. Shapes straddle qMR/qNR/k-quad boundaries. The
// dense k×n operand reaches the packer as what it is to a convolution: a
// 1×1 kernel over k channels of a one-row, n-pixel image.
func TestQGemmPackedParity(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	shapes := []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 64}
	for _, m := range shapes {
		for _, k := range shapes {
			for _, n := range shapes {
				w := randQ8(r, m*k, QWeightMax)
				b := randQ8(r, k*n, QActMax)
				want := qNaive(w, b, n, m, k, n)

				qa := packQA(w, m, k)
				g := convGeom{n: 1, c: k, h: 1, w: n, kh: 1, kw: 1, stride: 1, oh: 1, ow: n}
				nPanels := (n + qNR - 1) / qNR
				aslot := qa.kQuads * qMR * 4
				bslot := qa.kQuads * qNR * 4
				pb := make([]uint8, nPanels*bslot)
				packQPanels(pb, b, &g, 0, nPanels*qNR, make([]int32, 1))
				cbuf := make([]int32, qMR*qNR)
				for rt := 0; rt < qa.rowTiles; rt++ {
					for p := 0; p < nPanels; p++ {
						qKernel(qa.buf[rt*aslot:], pb[p*bslot:], cbuf, qa.kQuads)
						for rr := 0; rr < qMR; rr++ {
							row := rt*qMR + rr
							if row >= m {
								continue
							}
							comp := int32(0)
							for _, v := range w[row*k : (row+1)*k] {
								comp += 128 * int32(v)
							}
							for j := 0; j < qNR; j++ {
								col := p*qNR + j
								if col >= n {
									continue
								}
								got := cbuf[rr*qNR+j] - comp
								if got != want[row*n+col] {
									t.Fatalf("m=%d k=%d n=%d: C[%d][%d] = %d, want %d", m, k, n, row, col, got, want[row*n+col])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestQKernelScalarVsAVX2 checks the assembly kernels — the selected one
// and, where the host selected VNNI, the AVX2 one — bit-for-bit against
// the scalar reference on random packed operands. With weights bounded to
// ±QWeightMax the saturating VPMADDUBSW chain is exact, so the tiles must
// be identical, not merely close.
func TestQKernelScalarVsAVX2(t *testing.T) {
	if qavx2Kernel == nil {
		t.Skip("AVX2 int8 kernel not available on this host")
	}
	r := rand.New(rand.NewSource(97))
	for _, kq := range []int{1, 2, 3, 7, 16, 63} {
		a := randQ8(r, kq*qMR*4, QWeightMax)
		b := make([]uint8, kq*qNR*4)
		for i := range b {
			b[i] = uint8(r.Intn(256))
		}
		want := make([]int32, qMR*qNR)
		qkernelScalar4x16(a, b, want, kq)
		for _, k := range []struct {
			name string
			run  func(a []int8, b []uint8, cbuf []int32, kq int)
		}{{QGemmKernelName(), qKernel}, {"avx2-4x16", qavx2Kernel}} {
			got := make([]int32, qMR*qNR)
			k.run(a, b, got, kq)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("kq=%d: tile[%d] = %d (%s), want %d (scalar)", kq, i, got[i], k.name, want[i])
				}
			}
		}
	}
}

// qconvRef computes the exact expected QuantizedConv output by replaying
// its integer arithmetic naively: same quantized weights, naive int32
// convolution, same epilogue formula.
func qconvRef(qc *QuantizedConv, in []int8, n, h, w int) []int8 {
	oh, ow := qc.OutSize(h, w)
	c := qc.c
	kdim := c * qc.kh * qc.kw
	out := make([]int8, n*qc.oc*oh*ow)
	cols := make([]int8, kdim*oh*ow)
	for s := 0; s < n; s++ {
		QIm2ColRows(in[s*c*h*w:(s+1)*c*h*w], c, h, w, qc.kh, qc.kw, qc.stride, qc.pad, 0, oh, cols)
		acc := qNaive(qc.qw, cols, oh*ow, qc.oc, kdim, oh*ow)
		for o := 0; o < qc.oc; o++ {
			for i := 0; i < oh*ow; i++ {
				v := qc.mult[o]*float32(acc[o*oh*ow+i]) + qc.add[o]
				r := math.RoundToEven(float64(v))
				lo := float64(-QActMax)
				if qc.relu {
					lo = 0
				}
				if r < lo {
					r = lo
				} else if r > QActMax {
					r = QActMax
				}
				out[(s*qc.oc+o)*oh*ow+i] = int8(r)
			}
		}
	}
	return out
}

// TestQuantizedConvMatchesIntegerReference drives every execution path of
// QuantizedConv (generic im2col, stride-1 pointwise, strided pointwise,
// 1×1 outputs, batch > 1) against the naive integer replay.
// Equality is exact: driver and reference perform the same quantized
// arithmetic.
func TestQuantizedConvMatchesIntegerReference(t *testing.T) {
	rng := NewRNG(29)
	cases := []struct {
		name          string
		oc, c, kh, kw int
		stride, pad   int
		relu          bool
		n, h, w       int
	}{
		{"conv3x3-pad", 9, 5, 3, 3, 1, 1, true, 2, 11, 13},
		{"conv7x7-s2", 16, 5, 7, 7, 2, 3, true, 1, 17, 17},
		{"pointwise-s1", 17, 6, 1, 1, 1, 0, false, 3, 9, 10},
		{"pointwise-s2", 8, 7, 1, 1, 2, 0, true, 2, 12, 12},
		{"fc", 10, 33, 1, 1, 1, 0, false, 4, 1, 1},
		{"conv3x3-s2-pad", 6, 4, 3, 3, 2, 1, false, 1, 8, 8},
		// 1×1 outputs whose receptive field covers the input (the deep tail
		// of a backbone on a small chip): most taps are padding, which the
		// packer fills with the 0x80 lanes the offset compensation cancels.
		{"conv3x3-on-1x1", 13, 7, 3, 3, 1, 1, true, 2, 1, 1},
		{"conv3x3-s2-on-2x2", 12, 6, 3, 3, 2, 1, true, 3, 2, 2},
		{"conv3x3-on-1x1-norelu", 5, 9, 3, 3, 1, 1, false, 2, 1, 1},
		// 1×1 output whose receptive field does NOT cover the input (stride
		// overshoot).
		{"conv3x3-s9-on-9x9", 4, 3, 3, 3, 9, 0, false, 1, 9, 9},
		// Runs that start mid-panel: stride-2 output rows of 6 pixels.
		{"conv3x3-s2-runs-mid-panel", 7, 6, 3, 3, 2, 1, true, 2, 10, 11},
		// Panels that cross samples: 25-pixel samples in a batch of three.
		{"conv3x3-panels-cross-samples", 5, 9, 3, 3, 1, 1, false, 3, 5, 5},
		// Runs whose 16-byte tap reads would end past the input.
		{"pointwise-ends-within-16", 6, 3, 1, 1, 1, 0, false, 1, 5, 5},
		{"conv3x3-ends-within-16", 5, 4, 3, 3, 1, 1, true, 2, 6, 7},
		// Runs whose 32-byte stride-2 reads would end past the input.
		{"pointwise-s2-ends-within-32", 6, 3, 1, 1, 2, 0, false, 2, 9, 9},
		{"conv7x7-s2-ends-within-32", 4, 3, 7, 7, 2, 3, true, 1, 12, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			weight := RandNormal(rng, 0.3, tc.oc, tc.c, tc.kh, tc.kw)
			bias := RandNormal(rng, 0.1, tc.oc).Data()
			inF := RandNormal(rng, 1.0, tc.n, tc.c, tc.h, tc.w).Data()
			inScale := ActScale(MaxAbs(inF))
			in := make([]int8, len(inF))
			QuantizeInto(in, inF, inScale)

			qc := NewQuantizedConv(weight, bias, tc.stride, tc.pad, tc.relu, inScale, 0.05)
			want := qconvRef(qc, in, tc.n, tc.h, tc.w)

			oh, ow := qc.OutSize(tc.h, tc.w)
			check := func() {
				got := make([]int8, tc.n*tc.oc*oh*ow)
				qc.ForwardInto(got, in, tc.n, tc.h, tc.w)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("int8 out[%d] = %d, want %d", i, got[i], want[i])
					}
				}
			}
			check()
			prev := parallel.DefaultWorkers
			parallel.DefaultWorkers = 5
			defer func() { parallel.DefaultWorkers = prev }()
			check()
		})
	}
}

// TestQuantizedConvTracksFloatOracle is the accuracy smoke test: the
// dequantized int8 convolution must stay within quantization noise of the
// float PackedConv on well-conditioned random data.
func TestQuantizedConvTracksFloatOracle(t *testing.T) {
	rng := NewRNG(53)
	const n, c, h, w, oc = 2, 5, 14, 14, 12
	weight := RandNormal(rng, 0.25, oc, c, 3, 3)
	bias := RandNormal(rng, 0.1, oc).Data()
	input := RandNormal(rng, 1.0, n, c, h, w)

	pc := NewPackedConv(weight, bias, 1, 1, false)
	oh, ow := pc.OutSize(h, w)
	ref := New(n, oc, oh, ow)
	pc.ForwardInto(ref, input, nil)

	inScale := ActScale(MaxAbs(input.Data()))
	in := make([]int8, input.Dim(0)*c*h*w)
	QuantizeInto(in, input.Data(), inScale)
	outScale := ActScale(MaxAbs(ref.Data()))
	qc := NewQuantizedConv(weight, bias, 1, 1, false, inScale, outScale)
	outQ := make([]int8, n*oc*oh*ow)
	qc.ForwardInto(outQ, in, n, h, w)

	var sumSq, refSq float64
	for i, want := range ref.Data() {
		d := float64(outScale)*float64(outQ[i]) - float64(want)
		sumSq += d * d
		refSq += float64(want) * float64(want)
	}
	rel := math.Sqrt(sumSq / refSq)
	if rel > 0.05 {
		t.Fatalf("relative RMS error vs float oracle = %.4f, want ≤ 0.05", rel)
	}
}

func TestQOpsAgainstFloat(t *testing.T) {
	rng := NewRNG(67)
	const n, c, h, w = 2, 3, 9, 11

	t.Run("maxpool", func(t *testing.T) {
		inF := RandNormal(rng, 1.0, n, c, h, w)
		scale := ActScale(MaxAbs(inF.Data()))
		in := make([]int8, n*c*h*w)
		QuantizeInto(in, inF.Data(), scale)

		oh := ConvOut(h, 3, 2, 1)
		ow := ConvOut(w, 3, 2, 1)
		got := make([]int8, n*c*oh*ow)
		QMaxPool2DInto(got, in, n, c, h, w, 3, 2, 1)

		// Max of quantized values == quantized max (monotone map), so pool
		// the quantized input through the float path and compare exactly.
		qf := New(n, c, h, w)
		for i, q := range in {
			qf.Data()[i] = float32(q)
		}
		want := New(n, c, oh, ow)
		MaxPool2DInto(want, qf, 3, 2, 1)
		for i := range got {
			if float32(got[i]) != want.Data()[i] {
				t.Fatalf("maxpool[%d] = %d, want %v", i, got[i], want.Data()[i])
			}
		}
	})

	t.Run("add", func(t *testing.T) {
		a := randQ8(rand.New(rand.NewSource(5)), 64, QActMax)
		b := randQ8(rand.New(rand.NewSource(6)), 64, QActMax)
		ra, rb := float32(0.6), float32(1.4)
		got := make([]int8, 64)
		QAddInto(got, a, b, ra, rb, true)
		for i := range got {
			v := math.Round(float64(ra*float32(a[i]) + rb*float32(b[i])))
			if v < 0 {
				v = 0
			} else if v > QActMax {
				v = QActMax
			}
			if got[i] != int8(v) {
				t.Fatalf("add[%d] = %d, want %d", i, got[i], int8(v))
			}
		}
	})

	t.Run("gap", func(t *testing.T) {
		in := randQ8(rand.New(rand.NewSource(7)), n*c*h*w, QActMax)
		gotF := make([]float32, n*c)
		QGlobalAvgPoolFloatInto(gotF, in, n, c, h, w, 0.01)
		for p := 0; p < n*c; p++ {
			s := int32(0)
			for _, v := range in[p*h*w : (p+1)*h*w] {
				s += int32(v)
			}
			wantF := float32(float64(0.01) * float64(s) / float64(h*w))
			if math.Abs(float64(gotF[p]-wantF)) > 1e-7 {
				t.Fatalf("gapF[%d] = %v, want %v", p, gotF[p], wantF)
			}
		}
	})
}
