package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"drainnas/internal/parallel"
)

// convGeomCase is one lowering geometry of the column-panel suite.
type convGeomCase struct {
	n, c, h, w  int
	kh, kw      int
	stride, pad int
}

func (tc convGeomCase) String() string {
	return fmt.Sprintf("n%d c%d %dx%d k%dx%d s%d p%d", tc.n, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad)
}

func (tc convGeomCase) geom() convGeom {
	return convGeom{
		n: tc.n, c: tc.c, h: tc.h, w: tc.w, kh: tc.kh, kw: tc.kw, stride: tc.stride, padY: tc.pad, padX: tc.pad,
		oh: ConvOut(tc.h, tc.kh, tc.stride, tc.pad), ow: ConvOut(tc.w, tc.kw, tc.stride, tc.pad),
	}
}

// panelGeomCases are the hand-picked geometries every panel test runs before
// its random ones: output rows narrower than, equal to and wider than both
// panel widths, "same" convolutions whose runs cross output rows, maps so
// small a panel straddles two, three and sixteen samples, and batches whose
// column count is not a multiple of the panel width.
var panelGeomCases = []convGeomCase{
	{3, 2, 9, 16, 3, 3, 1, 1},  // OW == 16, same conv
	{2, 3, 7, 40, 3, 3, 1, 1},  // OW > 16
	{5, 2, 11, 4, 3, 3, 1, 1},  // OW == 4
	{7, 3, 3, 3, 3, 3, 1, 1},   // 9 pixels: a 16-panel straddles two and three samples
	{9, 4, 2, 2, 3, 3, 1, 1},   // 4 pixels: a 16-panel holds four samples
	{19, 5, 1, 1, 1, 1, 1, 0},  // the fully-connected case: one pixel per sample
	{3, 2, 13, 9, 5, 5, 2, 2},  // strided, non-square
	{2, 3, 10, 17, 7, 7, 3, 3}, // 7×7, stride 3
	{4, 2, 6, 5, 1, 1, 2, 0},   // strided pointwise
	{2, 2, 5, 6, 1, 1, 1, 3},   // pad wider than the kernel: whole border rows in the padding
	{3, 1, 8, 8, 3, 3, 1, 0},   // valid conv: OW < W, runs stop at row ends
	{1, 3, 25, 25, 3, 3, 1, 1}, // 625 columns: a multiple of neither width
	{3, 2, 6, 9, 1, 3, 1, 1},   // 1×3 kernel: OW == W but OH == H+2, runs still cross rows
	{2, 2, 9, 6, 3, 1, 1, 1},   // 3×1 kernel: OW == W+2
}

// randomGeomCase draws kernel 1/3/5/7 (one in five not square), stride 1–3,
// pad 0–3 and a non-square input large enough for at least one output pixel.
func randomGeomCase(r *rand.Rand) convGeomCase {
	for {
		tc := convGeomCase{
			n: 1 + r.Intn(9), c: 1 + r.Intn(5), h: 1 + r.Intn(20), w: 1 + r.Intn(34),
			kh: 1 + 2*r.Intn(4), stride: 1 + r.Intn(3), pad: r.Intn(4),
		}
		if tc.kw = tc.kh; r.Intn(5) == 0 {
			tc.kw = 1 + 2*r.Intn(4)
		}
		if g := tc.geom(); g.oh > 0 && g.ow > 0 {
			return tc
		}
	}
}

func allGeomCases(seed int64, random int) []convGeomCase {
	r := rand.New(rand.NewSource(seed))
	cases := append([]convGeomCase(nil), panelGeomCases...)
	for i := 0; i < random; i++ {
		cases = append(cases, randomGeomCase(r))
	}
	return cases
}

// poisonScratchPool leaves NaN-filled buffers in every float scratch class a
// convolution can draw from, as TestConv2DBackwardPooledParity does for the
// backward pass: a lane the driver reads without having written it shows up
// as a NaN output, not as a silent match on stale zeros.
func poisonScratchPool() {
	nan := float32(math.NaN())
	for class := scratchMinClass; class <= 18; class++ {
		var held [][]float32
		for i := 0; i < 4; i++ {
			buf := scratchF32.get(1 << class)
			for j := range buf {
				buf[j] = nan
			}
			held = append(held, buf)
		}
		for _, buf := range held {
			scratchF32.put(buf)
		}
	}
}

// TestPackPanelsMatchesIm2Col holds the float packer, at both panel widths
// whatever kernel this host runs, to the materialised lowering bit for bit:
// lane l of tap k of panel p is Im2Col's entry (k, column) of the sample the
// column belongs to, and lanes past the last column are zero. Blocks are cut
// at random so packing starts mid-sample and mid-row.
func TestPackPanelsMatchesIm2Col(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	nan := float32(math.NaN())
	for _, tc := range allGeomCases(61, 150) {
		g := tc.geom()
		kdim, px := g.kdim(), g.pixels()
		in := RandNormal(NewRNG(uint64(r.Int63())), 1, g.n, g.c, g.h, g.w)
		col := make([]float32, g.n*kdim*px)
		size := g.c * g.h * g.w
		for s := 0; s < g.n; s++ {
			Im2Col(in.data[s*size:(s+1)*size], g.c, g.h, g.w, g.kh, g.kw, g.stride, g.padY, col[s*kdim*px:(s+1)*kdim*px])
		}
		for _, nr := range []int{4, 16} {
			panels := (g.n*px + nr - 1) / nr
			packed := make([]float32, panels*kdim*nr)
			for i := range packed {
				packed[i] = nan
			}
			for p := 0; p < panels; {
				b := 1 + r.Intn(5)
				if p+b > panels {
					b = panels - p
				}
				packPanels(packed[p*kdim*nr:(p+b)*kdim*nr], in.data, &g, p*nr, (p+b)*nr, nr)
				p += b
			}
			for p := 0; p < panels; p++ {
				for k := 0; k < kdim; k++ {
					for l := 0; l < nr; l++ {
						got := packed[p*kdim*nr+k*nr+l]
						want := float32(0)
						if j := p*nr + l; j < g.n*px {
							want = col[(j/px)*kdim*px+k*px+j%px]
						}
						if math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("%v nr=%d: panel %d tap %d lane %d = %v, want %v", tc, nr, p, k, l, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPackQPanelsMatchesQIm2Col is the same check for the int8 packer
// against the test-only s8 lowering: byte (q, lane, t) is the s8 value of
// tap 4q+t offset to u8, and k padding, padding taps and tail lanes are 0x80.
func TestPackQPanelsMatchesQIm2Col(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for _, tc := range allGeomCases(67, 150) {
		g := tc.geom()
		kdim, px := g.kdim(), g.pixels()
		kQuads := (kdim + 3) / 4
		size := g.c * g.h * g.w
		in := randQ8(r, g.n*size, QActMax)
		col := make([]int8, g.n*kdim*px)
		for s := 0; s < g.n; s++ {
			QIm2ColRows(in[s*size:(s+1)*size], g.c, g.h, g.w, g.kh, g.kw, g.stride, g.padY, 0, g.oh, col[s*kdim*px:(s+1)*kdim*px])
		}
		panels := (g.n*px + qNR - 1) / qNR
		panel := kQuads * qNR * 4
		packed := make([]uint8, panels*panel)
		for i := range packed {
			packed[i] = 0x55
		}
		masks := make([]int32, g.kh*g.kw)
		for p := 0; p < panels; {
			b := 1 + r.Intn(5)
			if p+b > panels {
				b = panels - p
			}
			packQPanels(packed[p*panel:(p+b)*panel], in, &g, p*qNR, (p+b)*qNR, masks)
			p += b
		}
		for p := 0; p < panels; p++ {
			for k := 0; k < kQuads*4; k++ {
				for l := 0; l < qNR; l++ {
					got := packed[p*panel+(k/4*qNR+l)*4+k%4]
					want := uint8(0x80)
					if j := p*qNR + l; j < g.n*px && k < kdim {
						want = uint8(col[(j/px)*kdim*px+k*px+j%px]) ^ 0x80
					}
					if got != want {
						t.Fatalf("%v: panel %d tap %d lane %d = %#x, want %#x", tc, p, k, l, got, want)
					}
				}
			}
		}
	}
}

// convOracle is the specification of the float driver: per sample, Im2Col
// then the naive streaming multiply, then bias and ReLU.
func convOracle(input, weight *Tensor, bias []float32, relu bool, g *convGeom) *Tensor {
	oc, kdim, px := weight.shape[0], g.kdim(), g.pixels()
	out := New(g.n, oc, g.oh, g.ow)
	col := make([]float32, kdim*px)
	size := g.c * g.h * g.w
	for s := 0; s < g.n; s++ {
		Im2Col(input.data[s*size:(s+1)*size], g.c, g.h, g.w, g.kh, g.kw, g.stride, g.padY, col)
		res := out.data[s*oc*px : (s+1)*oc*px]
		matmulNaive(res, px, weight.data, kdim, col, px, oc, kdim, px, false)
		for o := 0; o < oc; o++ {
			for i := range res[o*px : (o+1)*px] {
				v := res[o*px+i]
				if bias != nil {
					v += bias[o]
				}
				if relu && v < 0 {
					v = 0
				}
				res[o*px+i] = v
			}
		}
	}
	return out
}

// TestConvDriverMatchesOracle is the property test of the fused pack +
// driver: seeded random geometry, output channels drawn on both sides of
// the tiled/naive cutoff, bias and ReLU on and off, one and three workers,
// a NaN-poisoned scratch pool, under the active and the forced scalar kernel.
func TestConvDriverMatchesOracle(t *testing.T) {
	run := func(t *testing.T) {
		r := rand.New(rand.NewSource(71))
		for i, tc := range allGeomCases(71, 80) {
			g := tc.geom()
			// Enough output channels to tile the layer, except every fourth
			// case, which stays naive.
			oc := 1 + r.Intn(12)
			if i%4 != 3 {
				oc += (gemmSerialCutoff + g.kdim()*g.pixels() - 1) / (g.kdim() * g.pixels())
				if oc > 300 {
					continue
				}
			}
			rng := NewRNG(uint64(r.Int63()))
			input := RandNormal(rng, 1, g.n, g.c, g.h, g.w)
			weight := RandNormal(rng, 0.3, oc, g.c, g.kh, g.kw)
			var bias []float32
			if i%3 != 0 {
				bias = RandNormal(rng, 0.5, oc).data
			}
			relu := i%2 == 0
			want := convOracle(input, weight, bias, relu, &g)
			pc := NewPackedConv(weight, bias, tc.stride, tc.pad, relu)
			for _, workers := range []int{1, 3} {
				prev := parallel.DefaultWorkers
				parallel.DefaultWorkers = workers
				poisonScratchPool()
				got := New(g.n, oc, g.oh, g.ow)
				got.Fill(float32(math.NaN()))
				pc.ForwardInto(got, input, nil)
				parallel.DefaultWorkers = prev
				if d := maxKernelDiff(got, want); !(d <= parityTol(g.kdim())) {
					t.Fatalf("%v oc=%d relu=%v workers=%d kernel=%s: max blended diff %g", tc, oc, relu, workers, gemmKernelName, d)
				}
			}
		}
	}
	t.Run("active-kernel", run)
	t.Run("scalar-kernel", func(t *testing.T) {
		defer forceScalarKernel()()
		run(t)
	})
}

// TestQuantizedConvRandomGeometry is the int8 twin: the driver against the
// exact integer replay (qconvRef, built on the test-only QIm2ColRows) over
// the same geometry, with and without ReLU, one and three workers. Integer
// arithmetic leaves no tolerance: every output must match.
func TestQuantizedConvRandomGeometry(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for i, tc := range allGeomCases(73, 80) {
		g := tc.geom()
		oc := 1 + r.Intn(21)
		rng := NewRNG(uint64(r.Int63()))
		weight := RandNormal(rng, 0.3, oc, g.c, g.kh, g.kw)
		bias := RandNormal(rng, 0.1, oc).data
		size := g.n * g.c * g.h * g.w
		in := randQ8(r, size, QActMax)
		qc := NewQuantizedConv(weight, bias, tc.stride, tc.pad, i%2 == 0, 0.02, 0.05)
		want := qconvRef(qc, weight, in, g.n, g.h, g.w)
		for _, workers := range []int{1, 3} {
			prev := parallel.DefaultWorkers
			parallel.DefaultWorkers = workers
			got := make([]int8, g.n*oc*g.pixels())
			qc.ForwardInto(got, in, g.n, g.h, g.w)
			parallel.DefaultWorkers = prev
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%v oc=%d workers=%d: int8 out[%d] = %d, want %d", tc, oc, workers, j, got[j], want[j])
				}
			}
		}
	}
}

// invarianceCases are the layers the bitwise suite runs: tiled layers of
// each lowering kind, one that stays naive, and two just above
// gemmSerialCutoff (16·144·36 and 16·72·81 against 32768) — the shapes whose
// row chunks used to fall below it, so that 436 of 576 and 942 of 1296
// outputs of a sample differed between batch 8 and batch 1.
var invarianceCases = []struct {
	c, oc, h, w, k, stride, pad int
}{
	{16, 16, 6, 6, 3, 1, 1},
	{8, 16, 9, 9, 3, 1, 1},
	{5, 32, 20, 20, 3, 2, 1},
	{32, 32, 13, 11, 3, 1, 1},
	{24, 48, 7, 7, 1, 1, 0},
	{16, 24, 8, 8, 1, 2, 0},
	{64, 64, 2, 2, 3, 1, 1},
	{3, 4, 5, 5, 3, 1, 1}, // naive
}

// TestConvBitwiseBatchWorkerInvariance: a sample's output is the same bits
// whatever batch it rides in (alone, one of three, one of eight), wherever
// in the batch it sits, and however many workers run the layer — float and
// int8. The reference is the sample alone on one worker.
func TestConvBitwiseBatchWorkerInvariance(t *testing.T) {
	const pool = 8
	run := func(t *testing.T) {
		for _, tc := range invarianceCases {
			rng := NewRNG(83)
			weight := RandNormal(rng, 0.3, tc.oc, tc.c, tc.k, tc.k)
			bias := RandNormal(rng, 0.5, tc.oc).data
			samples := RandNormal(rng, 1, pool, tc.c, tc.h, tc.w)
			size := tc.c * tc.h * tc.w
			pc := NewPackedConv(weight, bias, tc.stride, tc.pad, true)
			oh, ow := pc.OutSize(tc.h, tc.w)
			outSize := tc.oc * oh * ow

			inQ := make([]int8, pool*size)
			QuantizeInto(inQ, samples.data, ActScale(MaxAbs(samples.data)))
			qc := NewQuantizedConv(weight, bias, tc.stride, tc.pad, true, ActScale(MaxAbs(samples.data)), 0.05)

			forward := func(first, n, workers int) ([]float32, []int8) {
				prev := parallel.DefaultWorkers
				parallel.DefaultWorkers = workers
				defer func() { parallel.DefaultWorkers = prev }()
				x := FromSlice(samples.data[first*size:(first+n)*size], n, tc.c, tc.h, tc.w)
				out := New(n, tc.oc, oh, ow)
				pc.ForwardInto(out, x, nil)
				outQ := make([]int8, n*outSize)
				qc.ForwardInto(outQ, inQ[first*size:(first+n)*size], n, tc.h, tc.w)
				return out.data, outQ
			}
			refF := make([]float32, 0, pool*outSize)
			refQ := make([]int8, 0, pool*outSize)
			for s := 0; s < pool; s++ {
				f, q := forward(s, 1, 1)
				refF, refQ = append(refF, f...), append(refQ, q...)
			}
			for _, batch := range []struct{ first, n int }{{0, 1}, {7, 1}, {0, 3}, {5, 3}, {0, 8}} {
				for _, workers := range []int{1, 2, 3, 5, 16} {
					gotF, gotQ := forward(batch.first, batch.n, workers)
					wantF := refF[batch.first*outSize : (batch.first+batch.n)*outSize]
					wantQ := refQ[batch.first*outSize : (batch.first+batch.n)*outSize]
					diffF, diffQ := 0, 0
					for i := range gotF {
						if math.Float32bits(gotF[i]) != math.Float32bits(wantF[i]) {
							diffF++
						}
						if gotQ[i] != wantQ[i] {
							diffQ++
						}
					}
					if diffF != 0 || diffQ != 0 {
						t.Errorf("%+v samples [%d,%d) workers=%d kernel=%s: %d/%d float and %d/%d int8 outputs differ from the sample alone",
							tc, batch.first, batch.first+batch.n, workers, gemmKernelName, diffF, len(gotF), diffQ, len(gotQ))
					}
				}
			}
		}
	}
	t.Run("active-kernel", run)
	t.Run("scalar-kernel", func(t *testing.T) {
		defer forceScalarKernel()()
		run(t)
	})
}

// TestPlanPanelGrid pins the grid rule: the blocks cover the panels, a block
// is one panel or fits the budget, row groups appear only when the columns
// give fewer blocks than workers, and the loop order follows the weight size
// alone.
func TestPlanPanelGrid(t *testing.T) {
	prev := parallel.DefaultWorkers
	defer func() { parallel.DefaultWorkers = prev }()
	for _, workers := range []int{1, 2, 5, 16} {
		parallel.DefaultWorkers = workers
		for _, panels := range []int{1, 2, 3, 8, 25, 40, 313, 1250} {
			for _, k := range []int{9, 45, 288, 576, 1152, 2304} {
				for _, m := range []int{2, 32, 64, 128, 256} {
					rowTiles := (m + 5) / 6
					weightBytes := 4 * rowTiles * 6 * k
					panelBytes := 4 * k * 16
					g := planPanelGrid(panels, rowTiles, weightBytes, panelBytes)
					what := fmt.Sprintf("workers=%d panels=%d k=%d m=%d: %+v", workers, panels, k, m, g)
					if g.blocks*g.blockPanels < panels || (g.blocks-1)*g.blockPanels >= panels {
						t.Fatalf("%s: blocks do not tile the panels", what)
					}
					if g.blockPanels > 1 && g.blockPanels*panelBytes > convBlockBytes {
						t.Fatalf("%s: block of %d bytes over the %d budget", what, g.blockPanels*panelBytes, convBlockBytes)
					}
					if g.rowGroups < 1 || g.rowGroups > rowTiles {
						t.Fatalf("%s: row groups outside [1, %d]", what, rowTiles)
					}
					if g.rowGroups > 1 && g.blocks >= workers {
						t.Fatalf("%s: row groups with no idle worker to feed", what)
					}
					if g.rowOuter != (weightBytes > convWeightBytes) {
						t.Fatalf("%s: loop order does not follow the weight size", what)
					}
				}
			}
		}
	}
}
