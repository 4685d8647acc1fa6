package tensor

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"drainnas/internal/parallel"
)

// Col2Im scatters a column matrix (the gradient w.r.t. the im2col output)
// back into an image gradient of shape (C,H,W), accumulating overlapping
// taps. dst must be pre-zeroed by the caller if a fresh gradient is wanted.
// Test-only, beside QIm2ColRows: it is Im2Col's adjoint and the scatter half
// of the gradient oracle; Conv2DBackward gathers instead.
func Col2Im(col []float32, c, h, w, kh, kw, stride, pad int, dst []float32) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	cols := oh * ow
	if len(col) != c*kh*kw*cols {
		panic(fmt.Sprintf("tensor: Col2Im col length %d, want %d", len(col), c*kh*kw*cols))
	}
	if len(dst) != c*h*w {
		panic(fmt.Sprintf("tensor: Col2Im dst length %d, want %d", len(dst), c*h*w))
	}
	row := 0
	for ch := 0; ch < c; ch++ {
		plane := dst[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				crow := col[row*cols : (row+1)*cols]
				row++
				i := 0
				for oy := 0; oy < oh; oy++ {
					sy := oy*stride - pad + ky
					if sy < 0 || sy >= h {
						i += ow
						continue
					}
					srow := plane[sy*w : (sy+1)*w]
					for ox := 0; ox < ow; ox++ {
						sx := ox*stride - pad + kx
						if sx >= 0 && sx < w {
							srow[sx] += crow[i]
						}
						i++
					}
				}
			}
		}
	}
}

// backwardOracle is the specification of Conv2DBackward, and the algorithm
// it replaced: sample by sample, lower the input with Im2Col, gradW += gout ·
// colᵀ, gradCol = Wᵀ · gout scattered back by Col2Im, gradB += row sums —
// all on the naive streaming multiply, serially.
func backwardOracle(input, weight, gradOut, gradW, gradB *Tensor, stride, pad int) *Tensor {
	n, c, h, w := dims4("oracle input", input)
	oc, _, kh, kw := dims4("oracle weight", weight)
	kdim, cols := c*kh*kw, gradOut.shape[2]*gradOut.shape[3]
	gradIn := New(n, c, h, w)
	wT := transposed(weight.Reshape(oc, kdim))
	col, colT, gcol := New(kdim, cols), New(cols, kdim), New(kdim, cols)
	for s := 0; s < n; s++ {
		Im2Col(input.data[s*c*h*w:(s+1)*c*h*w], c, h, w, kh, kw, stride, pad, col.data)
		gout := gradOut.data[s*oc*cols : (s+1)*oc*cols]
		colT.CopyFrom(transposed(col))
		matmulNaive(gradW.data, kdim, gout, cols, colT.data, kdim, oc, cols, kdim, true)
		matmulNaive(gcol.data, cols, wT.data, oc, gout, cols, kdim, oc, cols, false)
		Col2Im(gcol.data, c, h, w, kh, kw, stride, pad, gradIn.data[s*c*h*w:(s+1)*c*h*w])
		if gradB != nil {
			for o := 0; o < oc; o++ {
				for _, v := range gout[o*cols : (o+1)*cols] {
					gradB.data[o] += v
				}
			}
		}
	}
	return gradIn
}

// gradCase is one layer of the gradient parity table.
type gradCase struct {
	n, c, side  int
	oc, k       int
	stride, pad int
}

func (tc gradCase) String() string {
	return fmt.Sprintf("n%d %d->%d @%d k%d s%d p%d", tc.n, tc.c, tc.oc, tc.side, tc.k, tc.stride, tc.pad)
}

// tensors draws the layer's input, weights and an upstream gradient.
func (tc gradCase) tensors(seed uint64) (input, weight, gradOut *Tensor) {
	rng := NewRNG(seed)
	out := ConvOut(tc.side, tc.k, tc.stride, tc.pad)
	return RandNormal(rng, 1, tc.n, tc.c, tc.side, tc.side),
		RandNormal(rng, 0.3, tc.oc, tc.c, tc.k, tc.k),
		RandNormal(rng, 1, tc.n, tc.oc, out, out)
}

// backward runs Conv2DBackward on fresh accumulators.
func (tc gradCase) backward(input, weight, gradOut *Tensor) (gin, gw, gb *Tensor) {
	gw, gb = New(tc.oc, tc.c, tc.k, tc.k), New(tc.oc)
	gin = Conv2DBackward(input, weight, gradOut, gw, gb, tc.stride, tc.pad)
	return gin, gw, gb
}

// gradCases is the paper's search space as the backward pass sees it. The
// stem family is every kernel 3/5/7 × stride 1/2 × pad 1/2/3 × 5/7 channels
// on a 32² chip, and the matched-padding stride-2 stems (and the 3×3
// stride-1 one) on a 100² chip; the blocks are ResNet-18's three shapes (3×3
// stride 1, 3×3 stride 2, the 1×1 stride-2 downsample) on the maps a 32²
// chip (16, 8, 4, 2, 1) and a 100² chip (25, 13, 7, 4) hand them, every
// stage at width 32 and the first two at widths 48 and 64. Batches cycle
// through 1, 3 and 16, stepping down where the oracle would take seconds.
func gradCases() []gradCase {
	var cases []gradCase
	add := func(tc gradCase) {
		out := ConvOut(tc.side, tc.k, tc.stride, tc.pad)
		for _, n := range [][]int{{1}, {3, 1}, {16, 3, 1}}[len(cases)%3] {
			if tc.n = n; n*tc.oc*tc.c*tc.k*tc.k*out*out <= 1<<24 {
				break
			}
		}
		cases = append(cases, tc)
	}
	for _, k := range []int{3, 5, 7} {
		for _, s := range []int{1, 2} {
			for _, p := range []int{1, 2, 3} {
				for _, c := range []int{5, 7} {
					add(gradCase{c: c, side: 32, oc: 32, k: k, stride: s, pad: p})
				}
			}
			if s == 2 || k == 3 {
				add(gradCase{c: 5 + k/2%2*2, side: 100, oc: 16 + 8*k, k: k, stride: s, pad: k / 2})
			}
		}
	}
	for _, width := range []int{32, 48, 64} {
		for stage, sides := range [][]int{{16, 25, 8}, {8, 13, 4}, {4, 7, 2}, {2, 4, 1}} {
			ch := width << stage
			if stage > 1 && width > 32 {
				break
			}
			for _, side := range sides {
				add(gradCase{c: ch, side: side, oc: ch, k: 3, stride: 1, pad: 1})
				if stage < 3 && side > 1 {
					add(gradCase{c: ch, side: side, oc: 2 * ch, k: 3, stride: 2, pad: 1})
					add(gradCase{c: ch, side: side, oc: 2 * ch, k: 1, stride: 2, pad: 0})
				}
			}
		}
	}
	// Maps so small that whole rows and columns of the kernel never leave the
	// padding (the backward lowers the others only), with and without a
	// stride, and padding wider than the kernel.
	for _, tc := range []gradCase{
		{c: 3, side: 1, oc: 4, k: 3, stride: 2, pad: 1}, {c: 3, side: 2, oc: 4, k: 5, stride: 1, pad: 2},
		{c: 2, side: 3, oc: 3, k: 7, stride: 3, pad: 3}, {c: 2, side: 2, oc: 3, k: 7, stride: 2, pad: 3},
		{c: 2, side: 5, oc: 3, k: 1, stride: 1, pad: 3}, {c: 4, side: 2, oc: 40, k: 3, stride: 2, pad: 1},
		{c: 3, side: 4, oc: 5, k: 2, stride: 3, pad: 0}, {c: 2, side: 1, oc: 2, k: 1, stride: 1, pad: 0},
	} {
		add(tc)
	}
	return cases
}

// relDiff is the largest |got − want| relative to the largest |want|.
func relDiff(got, want *Tensor) float64 {
	worst, scale := 0.0, 0.0
	for i, w := range want.data {
		worst = math.Max(worst, math.Abs(float64(got.data[i]-w)))
		scale = math.Max(scale, math.Abs(float64(w)))
	}
	if math.IsNaN(worst) {
		return worst
	}
	return worst / math.Max(scale, 1e-30)
}

// bothKernels runs fn under the active micro-kernel and the forced scalar
// one.
func bothKernels(t *testing.T, fn func(t *testing.T)) {
	t.Run("active-kernel", fn)
	t.Run("scalar-kernel", func(t *testing.T) {
		defer forceScalarKernel()()
		fn(t)
	})
}

// TestConv2DBackwardMatchesOracle holds all three gradients of every layer
// of the table to the per-sample oracle within 1e-4 of the gradient's scale,
// from a NaN-poisoned scratch pool.
func TestConv2DBackwardMatchesOracle(t *testing.T) {
	cases := gradCases()
	if raceEnabled {
		for i := range cases[:len(cases)/5] {
			cases[i] = cases[5*i]
		}
		cases = cases[:len(cases)/5]
	}
	type grads struct{ in, w, b *Tensor }
	want := make([]grads, len(cases))
	for i, tc := range cases {
		input, weight, gradOut := tc.tensors(uint64(i))
		want[i].w, want[i].b = New(tc.oc, tc.c, tc.k, tc.k), New(tc.oc)
		want[i].in = backwardOracle(input, weight, gradOut, want[i].w, want[i].b, tc.stride, tc.pad)
	}
	bothKernels(t, func(t *testing.T) {
		for i, tc := range cases {
			input, weight, gradOut := tc.tensors(uint64(i))
			poisonScratchPool()
			gin, gw, gb := tc.backward(input, weight, gradOut)
			for _, pair := range []struct {
				name      string
				got, want *Tensor
			}{{"gradIn", gin, want[i].in}, {"gradW", gw, want[i].w}, {"gradB", gb, want[i].b}} {
				if d := relDiff(pair.got, pair.want); !(d <= 1e-4) {
					t.Errorf("%v kernel=%s: %s off the oracle by %g of its scale", tc, gemmKernelName, pair.name, d)
				}
			}
		}
	})
}

// TestConv2DBackwardBitwiseWorkerInvariance is the backward twin of
// TestConvBitwiseBatchWorkerInvariance: gradIn, gradW and gradB carry the
// same bits under one, two and four workers (and five, which cuts every grid
// unevenly), with the scratch pool on and off.
func TestConv2DBackwardBitwiseWorkerInvariance(t *testing.T) {
	prev := parallel.DefaultWorkers
	defer func() { parallel.DefaultWorkers = prev }()
	cases := []gradCase{
		{5, 3, 9, 7, 3, 1, 1},     // odd everything
		{2, 4, 11, 10, 5, 3, 2},   // stride 3 against a 5×5 kernel
		{3, 6, 8, 9, 2, 2, 0},     // even kernel, no padding
		{2, 300, 3, 300, 3, 1, 1}, // reduction blocks shorter than gemmKC
	}
	for i, tc := range gradCases() {
		if i%5 == 0 && !(raceEnabled && i%10 == 0) {
			cases = append(cases, tc)
		}
	}
	bothKernels(t, func(t *testing.T) {
		for i, tc := range cases {
			input, weight, gradOut := tc.tensors(uint64(100 + i))
			parallel.DefaultWorkers = 1
			wantIn, wantW, wantB := tc.backward(input, weight, gradOut)
			for _, run := range []struct {
				workers int
				pooled  bool
			}{{1, false}, {2, true}, {2, false}, {4, true}, {5, true}} {
				parallel.DefaultWorkers = run.workers
				restore := func() {}
				if !run.pooled {
					restore = disableScratchPool()
				}
				gin, gw, gb := tc.backward(input, weight, gradOut)
				restore()
				for _, pair := range []struct {
					name      string
					got, want *Tensor
				}{{"gradIn", gin, wantIn}, {"gradW", gw, wantW}, {"gradB", gb, wantB}} {
					for e := range pair.want.data {
						if math.Float32bits(pair.got.data[e]) != math.Float32bits(pair.want.data[e]) {
							t.Fatalf("%v workers=%d pooled=%v kernel=%s: %s[%d] = %v, one worker gives %v",
								tc, run.workers, run.pooled, gemmKernelName, pair.name, e, pair.got.data[e], pair.want.data[e])
						}
					}
				}
			}
		}
	})
}

// TestConv2DBackwardRejectsShapeMismatch: every operand whose shape
// disagrees with the layer is refused up front, with the shapes in the
// message, not found out by an index deep in a worker.
func TestConv2DBackwardRejectsShapeMismatch(t *testing.T) {
	input, weight := New(2, 3, 8, 8), New(4, 3, 3, 3)
	gradOut, gradW, gradB := New(2, 4, 4, 4), New(4, 3, 3, 3), New(4)
	for _, tc := range []struct {
		name                                 string
		input, weight, gradOut, gradW, gradB *Tensor
		stride, pad                          int
		mentions                             string
	}{
		{"input rank", New(3, 8, 8), weight, gradOut, gradW, gradB, 2, 1, "[3 8 8]"},
		{"weight channels", input, New(4, 2, 3, 3), gradOut, New(4, 2, 3, 3), gradB, 2, 1, "[4 2 3 3]"},
		{"gradOut batch", input, weight, New(1, 4, 4, 4), gradW, gradB, 2, 1, "[1 4 4 4]"},
		{"gradOut channels", input, weight, New(2, 5, 4, 4), gradW, gradB, 2, 1, "[2 5 4 4]"},
		{"gradOut height", input, weight, New(2, 4, 3, 4), gradW, gradB, 2, 1, "[2 4 3 4]"},
		{"gradOut width", input, weight, New(2, 4, 4, 8), gradW, gradB, 2, 1, "[2 4 4 8]"},
		{"gradOut for another stride", input, weight, gradOut, gradW, gradB, 1, 1, "[2 4 8 8]"},
		{"gradW", input, weight, gradOut, New(4, 3, 3, 2), gradB, 2, 1, "[4 3 3 2]"},
		{"gradW rank", input, weight, gradOut, New(4, 27), gradB, 2, 1, "[4 27]"},
		{"gradB", input, weight, gradOut, gradW, New(3), 2, 1, "[3]"},
		{"gradB rank", input, weight, gradOut, gradW, New(4, 1), 2, 1, "[4 1]"},
		{"empty output", New(2, 3, 1, 1), weight, New(2, 4, 1, 1), gradW, gradB, 1, 0, "[2 4 0 0]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, "tensor: ") || !strings.Contains(msg, tc.mentions) {
					t.Fatalf("panic %q, want a tensor: message naming %s", msg, tc.mentions)
				}
			}()
			Conv2DBackward(tc.input, tc.weight, tc.gradOut, tc.gradW, tc.gradB, tc.stride, tc.pad)
		})
	}
	// The well-formed call the table perturbs must itself pass, bias or not.
	Conv2DBackward(input, weight, gradOut, gradW, gradB, 2, 1)
	Conv2DBackward(input, weight, gradOut, gradW, nil, 2, 1)
}

// TestConv2DBackwardScratchBoundedByColumnBlock is the backward half of
// TestConvScratchBoundedByColumnBlock: at the paper's 100² chip in a batch of
// eight, the stem and the stage-1 and stage-2 block convolutions of front32
// take nothing from the pools that grows with a sample's lowered columns.
// One stage-1 sample's im2col alone (288 taps × 625 pixels) would be 720 KB,
// and the old path held three matrices of that size per worker; now the
// largest request is a packed block inside the column block budget. (The
// flipped weight pack is the one request that grows with the layer — as the
// forward's own pack does — and these layers' packs fit the budget too.)
func TestConv2DBackwardScratchBoundedByColumnBlock(t *testing.T) {
	for _, tc := range []gradCase{
		{8, 5, 100, 32, 3, 2, 1}, {8, 5, 100, 32, 7, 2, 3},
		{8, 32, 25, 32, 3, 1, 1}, {8, 32, 25, 64, 3, 2, 1}, {8, 32, 25, 64, 1, 2, 0}, {8, 64, 13, 64, 3, 1, 1},
	} {
		input, weight, gradOut := tc.tensors(3)
		var largest, requests atomic.Int64
		restore := ObserveScratch(func(n int) {
			requests.Add(1)
			for {
				cur := largest.Load()
				if int64(n) <= cur || largest.CompareAndSwap(cur, int64(n)) {
					return
				}
			}
		})
		tc.backward(input, weight, gradOut)
		restore()
		if requests.Load() == 0 {
			t.Fatalf("%v: the backward made no scratch request; the observer is not wired", tc)
		}
		if got := largest.Load(); got > ConvBlockBytes {
			t.Errorf("%v: largest scratch request %d bytes, over the %d-byte column block budget", tc, got, ConvBlockBytes)
		}
	}
}

// BenchmarkConvBackwardShapes runs Conv2DBackward on front32's five
// convolution shapes as NAS trains them (a 32² chip, batch 16) and at the
// paper's size (a 100² chip, batch 8). A backward is two forwards' worth of
// multiply-adds: one for each gradient.
func BenchmarkConvBackwardShapes(b *testing.B) {
	for _, chip := range []struct{ side, batch int }{{32, 16}, {100, 8}} {
		side := chip.side
		for i, s := range planShapes {
			tc := gradCase{chip.batch, s.c, side, s.oc, 3, s.stride, 1}
			b.Run(fmt.Sprintf("chip%d/%dto%d@%d/batch%d", chip.side, tc.c, tc.oc, side, tc.n), func(b *testing.B) {
				input, weight, gradOut := tc.tensors(7)
				gw := New(tc.oc, tc.c, tc.k, tc.k)
				Conv2DBackward(input, weight, gradOut, gw, nil, tc.stride, tc.pad)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Conv2DBackward(input, weight, gradOut, gw, nil, tc.stride, tc.pad)
				}
				flops := 4 * float64(gradOut.Numel()) * float64(tc.c*tc.k*tc.k)
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
			})
			// The next shape's map: every stage halves it, and so does the
			// pool behind the stem.
			if side = ConvOut(side, 3, 2, 1); i == 0 {
				side = ConvOut(side, 3, 2, 1)
			}
		}
	}
}
