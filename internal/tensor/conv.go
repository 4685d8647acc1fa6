package tensor

import (
	"fmt"
	"math/bits"

	"drainnas/internal/metrics"
	"drainnas/internal/parallel"
)

// ConvOut returns the output spatial size of a convolution/pooling dimension:
// floor((in + 2*pad - kernel)/stride) + 1, or 0 when the (padded) input is
// smaller than the kernel (Go's truncating division would otherwise round
// the negative numerator toward zero and report a phantom output).
func ConvOut(in, kernel, stride, pad int) int {
	span := in + 2*pad - kernel
	if span < 0 {
		return 0
	}
	return span/stride + 1
}

// Im2Col lowers one (C,H,W) image (given as a flat slice) into a column
// matrix dst of shape (C*KH*KW, OH*OW), so that convolution becomes a matrix
// multiply with the (OC, C*KH*KW) weight matrix. Out-of-bounds taps (from
// padding) contribute zeros. Neither the tiled forward (convpanel.go) nor the
// backward pass (convgrad.go) builds this matrix; it serves the per-sample
// forward of layers too small to tile, and the tests as the lowering's oracle.
func Im2Col(src []float32, c, h, w, kh, kw, stride, pad int, dst []float32) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	cols := oh * ow
	if len(dst) != c*kh*kw*cols {
		panic(fmt.Sprintf("tensor: Im2Col dst length %d, want %d", len(dst), c*kh*kw*cols))
	}
	row := 0
	for ch := 0; ch < c; ch++ {
		plane := src[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				drow := dst[row*cols : (row+1)*cols]
				row++
				i := 0
				for oy := 0; oy < oh; oy++ {
					sy := oy*stride - pad + ky
					if sy < 0 || sy >= h {
						for ox := 0; ox < ow; ox++ {
							drow[i] = 0
							i++
						}
						continue
					}
					srow := plane[sy*w : (sy+1)*w]
					for ox := 0; ox < ow; ox++ {
						sx := ox*stride - pad + kx
						if sx < 0 || sx >= w {
							drow[i] = 0
						} else {
							drow[i] = srow[sx]
						}
						i++
					}
				}
			}
		}
	}
}

// Conv2D computes a batched 2-D convolution.
//
//	input:  (N, C, H, W)
//	weight: (OC, C, KH, KW)
//	bias:   (OC) or nil
//	output: (N, OC, OH, OW)
//
// It runs the same column-panel driver as the compiled inference plans
// (convInto), against a weight pack built for this call and released after.
func Conv2D(input, weight, bias *Tensor, stride, pad int) *Tensor {
	n, c, h, w := dims4("Conv2D input", input)
	oc, wc, kh, kw := dims4("Conv2D weight", weight)
	if wc != c {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch input C=%d weight C=%d", c, wc))
	}
	if bias != nil && (bias.NDim() != 1 || bias.shape[0] != oc) {
		panic(fmt.Sprintf("tensor: Conv2D bias shape %v, want [%d]", bias.shape, oc))
	}
	shape := convShape{oc: oc, c: c, kh: kh, kw: kw, stride: stride, pad: pad}
	oh, ow := shape.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D produces empty output (%dx%d) for input %dx%d k=%dx%d s=%d p=%d", oh, ow, h, w, kh, kw, stride, pad))
	}
	out := New(n, oc, oh, ow)
	kdim := c * kh * kw
	wp := newWeightPack(weight.data, kdim, oc, kdim)
	var b []float32
	if bias != nil {
		b = bias.data
	}
	convInto(out, input, wp, b, &shape, nil)
	wp.release()
	return out
}

// convInto is the convolution driver shared by Conv2D (per-call pack) and
// PackedConv (persistent pack): one GEMM per layer per batch, its columns
// packed straight from the input images (see convpanel.go), with bias, the
// shape's optional ReLU and an optional residual join (join, out's shape,
// added before a second ReLU) fused into the store of each finished tile so
// activations are written exactly once. Shapes must already be validated by
// the caller.
//
// Whether a layer is tiled depends on its shape alone: one sample's
// M·K·OH·OW against gemmSerialCutoff. A layer below it runs the naive
// kernel sample by sample, whatever the batch folds to — the two kernels
// round differently, so letting batch size or worker count pick between
// them would make a sample's logits depend on the company it keeps.
func convInto(out, input *Tensor, wp *weightPack, bias []float32, shape *convShape, join *Tensor) {
	job := convCall{
		out: out.data, in: input.data, wp: wp, bias: bias, relu: shape.relu,
		g: shape.geom(input.shape[0], input.shape[2], input.shape[3]),
	}
	if join != nil {
		job.join = join.data
	}
	g := &job.g
	cellsI, cellsJ := g.n, 1
	if job.naive = wp.m*wp.k*g.pixels() < gemmSerialCutoff; !job.naive {
		wp.panels()
		job.plan()
		cellsI, cellsJ = job.grid.blocks, job.grid.rowGroups
	}
	if parallel.DefaultWorkers == 1 || cellsI*cellsJ == 1 {
		// Serial grid: calling the cell body directly (rather than through a
		// method value handed to the scheduler) keeps the steady-state
		// inference path allocation-free.
		for i := 0; i < cellsI; i++ {
			for j := 0; j < cellsJ; j++ {
				job.run(i, j)
			}
		}
		return
	}
	pjob := job // escapes via the method value; the serial job stays on the stack
	parallel.ForTiles2D(cellsI, cellsJ, 0, pjob.run)
}

// plan sizes the grid of a tiled call whose weight panels are packed.
func (j *convCall) plan() {
	metrics.Kernel.GemmCall()
	pa, nr := &j.wp.pa, gemmNR
	j.grid = planPanelGrid((j.g.n*j.g.pixels()+nr-1)/nr, pa.rowTiles, 4*len(pa.buf), 4*pa.k*nr)
	metrics.Kernel.TilesDispatched(pa.rowTiles * j.grid.panels)
}

// convCall carries one lowered convolution so the per-cell body can be a
// method (direct-callable on the serial path) instead of a closure.
type convCall struct {
	out, in []float32
	wp      *weightPack
	bias    []float32
	relu    bool
	join    []float32 // residual join operand, laid out as out; nil for none
	g       convGeom
	naive   bool
	grid    panelGrid
	lattice lattice // step > 1: out is one phase of a strided layer's input gradient
}

// run executes grid cell (column block b, row group grp) — or, for a naive
// layer, sample b.
func (j *convCall) run(b, grp int) {
	if j.naive {
		j.runNaive(b)
		return
	}
	g, pa := &j.g, &j.wp.pa
	mr, nr := gemmMR, gemmNR
	pLo, pHi, rtLo, rtHi := j.grid.cell(b, grp, pa.rowTiles)
	panel := g.kdim() * nr
	block := scratchF32.get((pHi - pLo) * panel)
	packPanels(block, j.in, g, pLo*nr, pHi*nr, nr)
	// The accumulator tile comes from the scratch pool rather than a local
	// array: microKernel is a func variable, so escape analysis would move a
	// local to the heap on every call. Its spare row is room for storeTile,
	// which reads all sixteen lanes of a row from wherever a stretch starts.
	cbuf := scratchF32.get((mr + 1) * nr)
	if j.grid.rowOuter {
		for rt := rtLo; rt < rtHi; rt++ {
			for p := pLo; p < pHi; p++ {
				j.tile(rt, p, block[(p-pLo)*panel:], cbuf)
			}
		}
	} else {
		for p := pLo; p < pHi; p++ {
			for rt := rtLo; rt < rtHi; rt++ {
				j.tile(rt, p, block[(p-pLo)*panel:], cbuf)
			}
		}
	}
	scratchF32.put(cbuf)
	scratchF32.put(block)
}

// tile multiplies row tile rt of the weight pack by packed panel bp (global
// panel p) and stores the finished tile through the epilogue (store). A
// panel's columns are consecutive pixels, so each row of the tile lands as
// one contiguous store per sample it touches.
func (j *convCall) tile(rt, p int, bp, cbuf []float32) {
	g, pa := &j.g, &j.wp.pa
	mr, nr := gemmMR, gemmNR
	for kb := 0; kb < pa.kBlocks; kb++ {
		kc := pa.k - kb*gemmKC
		if kc > gemmKC {
			kc = gemmKC
		}
		microKernel(pa.buf[(rt*pa.kBlocks+kb)*gemmKC*mr:], bp[kb*gemmKC*nr:], cbuf, kc, kb > 0)
	}
	rows := pa.m - rt*mr
	if rows > mr {
		rows = mr
	}
	px := g.pixels()
	col, end := p*nr, p*nr+nr
	if total := g.n * px; end > total {
		end = total
	}
	for col < end {
		s, pix, n := g.stretch(col, end)
		lane := col - p*nr
		at := (s*pa.m+rt*mr)*px + pix
		switch {
		case j.lattice.step > 1:
			for ir := 0; ir < rows; ir++ {
				j.lattice.scatter(j.out, s*pa.m+rt*mr+ir, pix, g.ow, cbuf[ir*nr+lane:ir*nr+lane+n])
			}
		case forwardAVX2 && nr == 16:
			bias, join := &noBias[0], (*float32)(nil)
			if j.bias != nil {
				bias = &j.bias[rt*mr]
			}
			if j.join != nil {
				join = &j.join[at]
			}
			storeTile(&j.out[at], &cbuf[lane], join, bias, px, rows, n, j.relu)
		default:
			for ir := 0; ir < rows; ir++ {
				j.store(j.out[at+ir*px:], cbuf[ir*nr+lane:ir*nr+lane+n], j.joinRow(at+ir*px), rt*mr+ir)
			}
		}
		col += n
	}
}

// noBias is the bias storeTile reads for a layer without one.
var noBias [gemmMaxTile]float32

// joinRow returns the join operand from index at of the output on, or nil
// without a join.
func (j *convCall) joinRow(at int) []float32 {
	if j.join == nil {
		return nil
	}
	return j.join[at:]
}

// store is the fused epilogue of output channel o: v = src + bias[o], then
// the conv's ReLU, max(v, 0), which takes −0 to +0; then, with a join
// operand jn, v + jn[i] and the residual join's ReLU, v < 0 → 0, which
// leaves −0 as it is. It is the epilogue of naive layers and of hosts
// without AVX2, and storeTile's oracle: storeTile does the same arithmetic
// eight lanes at a time, each ReLU a compare and a mask, so neither a
// branch nor the builtin's seven-instruction max sits on a lane.
func (j *convCall) store(dst, src, jn []float32, o int) {
	var bv float32
	if j.bias != nil {
		bv = j.bias[o]
	}
	dst = dst[:len(src)]
	for i, v := range src {
		v += bv
		if j.relu {
			v = max(v, 0)
		}
		if jn != nil {
			if v += jn[i]; v < 0 {
				v = 0
			}
		}
		dst[i] = v
	}
}

// runNaive convolves sample s of a layer too small to tile: lower it with
// Im2Col, multiply with the streaming kernel, apply the epilogue.
func (j *convCall) runNaive(s int) {
	g, wp := &j.g, j.wp
	px := g.pixels()
	size := g.c * g.h * g.w
	col := scratchF32.get(wp.k * px)
	Im2Col(j.in[s*size:(s+1)*size], g.c, g.h, g.w, g.kh, g.kw, g.stride, g.padY, col)
	res := j.out[s*wp.m*px : (s+1)*wp.m*px]
	metrics.Kernel.NaiveCall()
	matmulNaive(res, px, wp.src, wp.lda, col, px, wp.m, wp.k, px, false)
	scratchF32.put(col)
	if j.bias == nil && !j.relu && j.join == nil {
		return
	}
	for o := 0; o < wp.m; o++ {
		row := res[o*px : (o+1)*px]
		j.store(row, row, j.joinRow((s*wp.m+o)*px), o)
	}
}

// matmulNaive is the dense i-k-j streaming kernel: the innermost loop walks
// one B row and one C row sequentially, the cache-friendliest layout for
// row-major data without packing. It is the kernel of layers too small to
// tile (below gemmSerialCutoff, where packing cannot amortize) and the
// oracle the tiled driver's parity tests compare against. It deliberately
// has no zero-skip branch: on dense activations the branch never fires and
// only costs the predictor.
//
// Operands are strided: c is m×n with leading dimension ldc, a is m×k with
// lda, b is k×n with ldb, so callers can address column windows of wider
// matrices in place. acc accumulates into c instead of overwriting it.
func matmulNaive(c []float32, ldc int, a []float32, lda int, b []float32, ldb int, m, k, n int, acc bool) {
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+n]
		if !acc {
			for j := range crow {
				crow[j] = 0
			}
		}
		arow := a[i*lda : i*lda+k]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			brow := b[kk*ldb : kk*ldb+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// packPanels packs GEMM columns [lo, hi) of the lowered batch into dst,
// panel after panel, each k-major (tap k of lane l at k·nr + l), the
// micro-kernel's B-side layout. lo and hi are panel-aligned; hi
// may pass the last real column, and those lanes are zero. Taps that fall
// in the padding are zero.
func packPanels(dst, in []float32, g *convGeom, lo, hi, nr int) {
	kdim := g.kdim()
	end := hi
	if total := g.n * g.pixels(); end > total {
		end = total
	}
	var runs [gemmMaxNR]colRun
	wk := g.walk(lo, end, nr)
	for p := 0; p*nr < end-lo; p++ {
		n := 0
		for wk.next(&runs[n]) {
			if n++; wk.lane == 0 {
				break
			}
		}
		packPanel(dst[p*kdim*nr:(p+1)*kdim*nr], in, g, runs[:n], nr)
	}
	if end < hi {
		// Zero the tail panel's unused lanes (denormals from stale pool
		// contents would poison throughput, not correctness).
		tail := dst[(hi-lo-nr)*kdim:]
		for k := 0; k < kdim; k++ {
			row := tail[k*nr+(end-lo)%nr : (k+1)*nr]
			for i := range row {
				row[i] = 0
			}
		}
	}
}

// packPanel packs one panel from the runs that make up its lanes.
//
// The loop nest is tap, run, channel: where a run reads and which of its
// columns are inside the image depend on the tap and the run alone, so the
// channel loop inside is a bare strided copy. For stride 1 a run's values
// are contiguous in the input, and under the 16-wide kernel they move as
// one fixed 64-byte block however short the run is — a block the compiler
// expands in line, where a copy of the run's own length is a call — and
// the few lanes whose tap is in the padding are zeroed after. The surplus
// of the block lands on lanes written later: higher lanes of the same k row
// belong to the panel's later runs, and what wraps into the next k row (same
// channel, next tap) is that tap's turn next. The one row with no later
// turn is a channel's last tap, so there a run not at lane 0 moves lane by
// lane; so does a run too close to either end of the batch tensor for a
// 16-value read.
//
// For stride 2 under AVX2, packRowsS2 moves a run's sixteen even values of
// each channel in one step (four loads, two shuffles) and, storing through
// a lane mask, writes the run's own lanes and nothing past them, so it
// serves a run wherever it sits; it needs a 32-value read. Without AVX2,
// and at other strides, a strided run moves lane by lane.
func packPanel(dst, in []float32, g *convGeom, runs []colRun, nr int) {
	hw, taps := g.h*g.w, g.kh*g.kw
	for ky := 0; ky < g.kh; ky++ {
		for kx := 0; kx < g.kw; kx++ {
			t := ky*g.kw + kx
			for ri := range runs {
				r := &runs[ri]
				mask := g.tapMask(r, ky, kx)
				off := g.tapOffset(r, ky, kx)
				d := dst[t*nr+r.lane:]
				switch {
				case mask == 0:
					for ch := 0; ch < g.c; ch++ {
						row := d[ch*taps*nr : ch*taps*nr+r.n]
						for i := range row {
							row[i] = 0
						}
					}
				case g.stride == 1 && nr == 16 && (t < taps-1 || r.lane == 0) &&
					off >= 0 && off+(g.c-1)*hw+16 <= len(in):
					copyRows16(d, in[off:], taps*nr, hw, g.c, ^mask&(1<<r.n-1))
				case g.stride == 2 && nr == 16 && forwardAVX2 &&
					off >= 0 && off+(g.c-1)*hw+32 <= len(in):
					packRowsS2(&d[0], &in[off], taps*nr, hw, g.c, 1<<r.n-1, mask)
				default:
					for ch := 0; ch < g.c; ch++ {
						row := d[ch*taps*nr : ch*taps*nr+r.n]
						for i := range row {
							row[i] = 0
							if mask>>i&1 != 0 {
								row[i] = in[off+ch*hw+i*g.stride]
							}
						}
					}
				}
			}
		}
	}
}

// copyRows16 moves rows of 16 values: row i goes from src[i·srcStride:] to
// dst[i·dstStride:], and the lanes set in zero are then cleared. It is its
// own function so the loop's few variables stay in registers, and the four
// 16-byte moves per row are fixed-size copies the compiler expands in line.
func copyRows16(dst, src []float32, dstStride, srcStride, rows int, zero uint32) {
	for {
		d, s := (*[16]float32)(dst), (*[16]float32)(src)
		copy(d[0:4], s[0:4])
		copy(d[4:8], s[4:8])
		copy(d[8:12], s[8:12])
		copy(d[12:16], s[12:16])
		for m := zero; m != 0; m &= m - 1 {
			d[bits.TrailingZeros32(m)&15] = 0
		}
		if rows--; rows == 0 {
			return
		}
		dst, src = dst[dstStride:], src[srcStride:]
	}
}

func dims4(what string, t *Tensor) (a, b, c, d int) {
	if t.NDim() != 4 {
		panic(fmt.Sprintf("tensor: %s wants a 4-D tensor, got shape %v", what, t.shape))
	}
	return t.shape[0], t.shape[1], t.shape[2], t.shape[3]
}
