package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"drainnas/internal/parallel"
)

// QuantizedConv is the int8 execution unit of quantized inference plans:
// the integer sibling of PackedConv. Construction quantizes the float
// weights per output channel (bounded to ±QWeightMax for the AVX2 kernel's
// saturation-free guarantee), precomputes the +128 activation-offset
// compensation, and folds the input/weight/output scales plus the bias into
// a per-channel requantize (or dequantize) epilogue fused with the optional
// ReLU. The weight panels pack lazily on first use and are kept for the
// value's lifetime, so a steady-state forward allocates nothing beyond
// pooled scratch.
//
// A QuantizedConv is immutable after construction and safe for concurrent
// use.
type QuantizedConv struct {
	qw   []int8    // oc×kdim quantized weights, |q| ≤ QWeightMax
	comp []int32   // per-oc u8-offset compensation: 128·Σ_k qw[o][k]
	mult []float32 // per-oc epilogue multiplier (see below)
	add  []float32 // per-oc epilogue addend (see below)

	oc, c, kh, kw int
	stride, pad   int
	relu          bool
	floatOut      bool

	once sync.Once
	qa   packedQA

	// Degenerate-spatial fast path (1×1 output whose receptive field covers
	// the whole input): the im2col matrix is mostly zero padding, so the
	// forward instead runs a pruned GEMV over just the valid taps. Built
	// lazily for the first qualifying (h, w); see buildDegenerate.
	degenOnce      sync.Once
	degenQA        packedQA
	degenComp      []int32
	degenH, degenW int
}

// NewQuantizedConv builds the int8 form of a convolution with float weight
// (OC, C, KH, KW), optional bias (nil or length OC), stride, padding and an
// optional fused ReLU. inScale is the symmetric scale of the s8 input
// activations. outScale > 0 selects int8 output — the epilogue requantizes
// to the given output scale — while outScale ≤ 0 selects float32 output
// (the dequantizing tail op of a quantized plan).
//
// The fused epilogue evaluates, per output channel o and int32 accumulator
// acc:
//
//	v = mult[o]·(acc − comp[o]) + add[o]
//
// with mult[o] = inScale·wScale[o]/outScale and add[o] = bias[o]/outScale
// for int8 output (v is then rounded and clamped, ReLU as a 0 lower clamp),
// or mult[o] = inScale·wScale[o] and add[o] = bias[o] for float output.
func NewQuantizedConv(weight *Tensor, bias []float32, stride, pad int, relu bool, inScale, outScale float32) *QuantizedConv {
	oc, c, kh, kw := dims4("NewQuantizedConv weight", weight)
	if bias != nil && len(bias) != oc {
		panic(fmt.Sprintf("tensor: NewQuantizedConv bias length %d, want %d", len(bias), oc))
	}
	if stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("tensor: NewQuantizedConv stride=%d pad=%d", stride, pad))
	}
	inScale = sanitizeScale(inScale)
	kdim := c * kh * kw
	qw, wScales := QuantizeWeightsPerChannel(weight.Data(), oc, kdim)

	qc := &QuantizedConv{
		qw:   qw,
		comp: make([]int32, oc),
		mult: make([]float32, oc),
		add:  make([]float32, oc),
		oc:   oc, c: c, kh: kh, kw: kw,
		stride: stride, pad: pad,
		relu:     relu,
		floatOut: outScale <= 0,
	}
	for o := 0; o < oc; o++ {
		sum := int32(0)
		for _, q := range qw[o*kdim : (o+1)*kdim] {
			sum += int32(q)
		}
		qc.comp[o] = 128 * sum
		m := inScale * wScales[o]
		b := float32(0)
		if bias != nil {
			b = bias[o]
		}
		if qc.floatOut {
			qc.mult[o], qc.add[o] = m, b
		} else {
			qc.mult[o], qc.add[o] = m/outScale, b/outScale
		}
	}
	return qc
}

// OutSize returns the output spatial size for an H×W input.
func (qc *QuantizedConv) OutSize(h, w int) (oh, ow int) {
	return ConvOut(h, qc.kh, qc.stride, qc.pad), ConvOut(w, qc.kw, qc.stride, qc.pad)
}

// ForwardInto convolves the s8 input (n, C, h, w flat) into exactly one of
// outQ (int8 mode) or outF (float32 mode), both flat (n, OC, OH, OW)
// buffers the caller sized from OutSize. It allocates nothing beyond pooled
// scratch. The lowering is the float driver's (convpanel.go): one GEMM over
// the whole batch's output pixels, column blocks packed straight from the
// images, so a batch-1 forward still spreads over every core and a sample's
// output is the same bytes in any batch.
func (qc *QuantizedConv) ForwardInto(outQ []int8, outF []float32, in []int8, n, h, w int) {
	if (outQ == nil) == (outF == nil) {
		panic("tensor: QuantizedConv wants exactly one of outQ/outF")
	}
	if qc.floatOut != (outF != nil) {
		panic("tensor: QuantizedConv output buffer kind does not match its epilogue mode")
	}
	if len(in) != n*qc.c*h*w {
		panic(fmt.Sprintf("tensor: QuantizedConv input length %d, want %d", len(in), n*qc.c*h*w))
	}
	oh, ow := qc.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: QuantizedConv produces empty output for input %dx%d", h, w))
	}
	want := n * qc.oc * oh * ow
	if (outQ != nil && len(outQ) != want) || (outF != nil && len(outF) != want) {
		panic(fmt.Sprintf("tensor: QuantizedConv output length mismatch, want %d", want))
	}
	qc.once.Do(func() { qc.qa = packQA(qc.qw, qc.oc, qc.c*qc.kh*qc.kw) })

	job := qconvCall{
		qc: qc, outQ: outQ, outF: outF, in: in, qa: &qc.qa, comp: qc.comp,
		g: convGeom{
			n: n, c: qc.c, h: h, w: w, kh: qc.kh, kw: qc.kw,
			stride: qc.stride, padY: qc.pad, padX: qc.pad, oh: oh, ow: ow,
		},
	}
	// Degenerate spatial case: a single output position whose receptive
	// field covers the whole input (the deep tail of a PaperSpace backbone,
	// where 3×3 convs run on 1×1 or 2×2 maps). Its columns would be mostly
	// zero padding; the pruned weight pack holds just the valid taps, and
	// against it the layer is a 1×1 convolution over C·h·w channels of a
	// one-pixel image — the same driver with a 9× shorter K for a 3×3 on 1×1.
	pointwise := qc.kh == 1 && qc.kw == 1 && qc.pad == 0
	if !pointwise && oh == 1 && ow == 1 && qc.kh >= qc.pad+h && qc.kw >= qc.pad+w {
		qc.degenOnce.Do(func() { qc.buildDegenerate(h, w) })
		if qc.degenH == h && qc.degenW == w {
			job.qa, job.comp = &qc.degenQA, qc.degenComp
			job.g = convGeom{n: n, c: qc.c * h * w, h: 1, w: 1, kh: 1, kw: 1, stride: 1, oh: 1, ow: 1}
		}
	}
	qa := job.qa
	job.grid = planPanelGrid((n*oh*ow+qNR-1)/qNR, qa.rowTiles, len(qa.buf), qa.kQuads*qNR*4)
	if parallel.DefaultWorkers == 1 || job.grid.blocks*job.grid.rowGroups == 1 {
		// Serial grid: direct method calls keep the steady-state inference
		// path allocation-free, as in convInto.
		for b := 0; b < job.grid.blocks; b++ {
			for grp := 0; grp < job.grid.rowGroups; grp++ {
				job.run(b, grp)
			}
		}
		return
	}
	pjob := job // escapes via the method value; the serial job stays on the stack
	parallel.ForTiles2D(job.grid.blocks, job.grid.rowGroups, 0, pjob.run)
}

// qconvCall carries one ForwardInto invocation so the per-cell body can be
// a method (direct-callable on the serial path). qa and comp travel beside
// qc because the degenerate path's pruned weight pack carries its own
// offset compensation.
type qconvCall struct {
	qc   *QuantizedConv
	outQ []int8
	outF []float32
	in   []int8
	qa   *packedQA
	comp []int32
	g    convGeom
	grid panelGrid
}

// run executes grid cell (column block b, row group grp): pack the block's
// panels from the images, run the micro-kernel over its row tiles, and
// merge each int32 tile through the fused requantize / dequantize epilogue.
func (j *qconvCall) run(b, grp int) {
	qa := j.qa
	pLo, pHi, rtLo, rtHi := j.grid.cell(b, grp, qa.rowTiles)
	panel := qa.kQuads * qNR * 4
	block := scratchU8.get((pHi - pLo) * panel)
	masks := scratchI32.get(j.g.kh * j.g.kw)
	packQPanels(block, j.in, &j.g, pLo*qNR, pHi*qNR, masks)
	scratchI32.put(masks)
	// The tile accumulator comes from the scratch pool: qKernel is a func
	// variable, so a local array would escape on every call.
	cbuf := scratchI32.get(qMR * qNR)
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
	scratchI32.put(cbuf)
	scratchU8.put(block)
}

// tile multiplies row tile rt of the weight pack by packed panel bp (global
// panel p) and merges the int32 tile through the epilogue into the
// (sample, channel, pixel) addresses the panel's columns stand for.
func (j *qconvCall) tile(rt, p int, bp []uint8, cbuf []int32) {
	qc, qa, g := j.qc, j.qa, &j.g
	qKernel(qa.buf[rt*qa.kQuads*qMR*4:], bp, cbuf, qa.kQuads)
	rows := qa.m - rt*qMR
	if rows > qMR {
		rows = qMR
	}
	px := g.pixels()
	col, end := p*qNR, p*qNR+qNR
	if total := g.n * px; end > total {
		end = total
	}
	for col < end {
		s, pix, n := g.stretch(col, end)
		lane := col - p*qNR
		for r := 0; r < rows; r++ {
			o := rt*qMR + r
			mult, addend, co := qc.mult[o], qc.add[o], j.comp[o]
			trow := cbuf[r*qNR+lane : r*qNR+lane+n]
			off := (s*qa.m+o)*px + pix
			// The clamps are min/max, not branches: after a ReLU-bound layer
			// half the values are negative, and a compare-and-jump per value
			// mispredicts on every other one.
			if qc.floatOut {
				dst := j.outF[off : off+n]
				lo := float32(math.Inf(-1))
				if qc.relu {
					lo = 0
				}
				for jj, acc := range trow {
					dst[jj] = max(mult*float32(acc-co)+addend, lo)
				}
			} else {
				dst := j.outQ[off : off+n]
				lo := float64(-QActMax)
				if qc.relu {
					lo = 0
				}
				for jj, acc := range trow {
					v := math.RoundToEven(float64(mult*float32(acc-co) + addend))
					dst[jj] = int8(min(max(v, lo), QActMax))
				}
			}
		}
		col += n
	}
}

// packQPanels packs GEMM columns [lo, hi) of the lowered s8 batch into dst,
// panel after panel, in the layout the int8 micro-kernel reads: k-quad-major
// and offset to u8, quad q of lane l at bytes (q·qNR + l)·4 … +3. lo and hi
// are panel-aligned; lanes past the last real column, taps in the padding
// and k padding all hold 0x80, the u8 image of activation 0. masks is
// caller-provided scratch of kh·kw values.
//
// Packing is the per-forward cost of the int8 path (weights pack once,
// activations on every call), so the loop works a whole k-quad at a time:
// the four taps of a column land as one dword store, with the +128 offset
// folded in as a single 32-bit XOR, instead of four stride-4 byte stores.
func packQPanels(dst []uint8, in []int8, g *convGeom, lo, hi int, masks []int32) {
	const nr = qNR
	kQuads := (g.kdim() + 3) / 4
	panel := kQuads * nr * 4
	hw := g.h * g.w
	end := hi
	if total := g.n * g.pixels(); end > total {
		end = total
	}
	var r colRun
	for wk := g.walk(lo, end, nr); wk.next(&r); {
		// Which columns of the run see a tap inside the image depends on
		// (ky, kx) only; every channel shares it.
		for ky := 0; ky < g.kh; ky++ {
			for kx := 0; kx < g.kw; kx++ {
				masks[ky*g.kw+kx] = int32(g.tapMask(&r, ky, kx))
			}
		}
		base := dst[r.col/nr*panel+r.lane*4:]
		origin := g.tapOffset(&r, 0, 0)
		ch, ky, kx := 0, 0, 0
		for q := 0; q < kQuads; q++ {
			// The quad's four taps: where column 0 reads (off) and which
			// columns are inside the image (msk); k padding stays all-zero.
			var off [4]int
			var msk [4]uint32
			for t := 0; t < 4 && ch < g.c; t++ {
				off[t], msk[t] = origin+ch*hw+ky*g.w+kx, uint32(masks[ky*g.kw+kx])
				if kx++; kx == g.kw {
					kx = 0
					if ky++; ky == g.kh {
						ky = 0
						ch++
					}
				}
			}
			all := msk[0] & msk[1] & msk[2] & msk[3]
			qd := base[q*nr*4 : q*nr*4+r.n*4]
			for i := 0; i < r.n; i++ {
				var u uint32
				if at := i * g.stride; all>>i&1 != 0 {
					u = uint32(uint8(in[off[0]+at])) | uint32(uint8(in[off[1]+at]))<<8 |
						uint32(uint8(in[off[2]+at]))<<16 | uint32(uint8(in[off[3]+at]))<<24
				} else {
					// Some tap of this column is in the padding: tap by tap.
					for t := 0; t < 4; t++ {
						if msk[t]>>i&1 != 0 {
							u |= uint32(uint8(in[off[t]+at])) << (8 * t)
						}
					}
				}
				binary.LittleEndian.PutUint32(qd[i*4:], u^0x80808080)
			}
		}
	}
	if end < hi {
		tail := dst[(hi-lo-nr)/nr*panel:]
		for q := 0; q < kQuads; q++ {
			for lane := (end - lo) % nr; lane < nr; lane++ {
				binary.LittleEndian.PutUint32(tail[(q*nr+lane)*4:], 0x80808080)
			}
		}
	}
}

// buildDegenerate packs the pruned weight matrix for 1×1-output forwards on
// an h×w input fully covered by the receptive field: column (ch, sy, sx) of
// the pruned matrix is original tap (ch, sy+pad, sx+pad) — exactly the taps
// whose im2col entries are not structurally zero — with the +128 offset
// compensation recomputed over the kept taps. The pack binds to the first
// qualifying (h, w); other shapes fall back to the generic path.
func (qc *QuantizedConv) buildDegenerate(h, w int) {
	kdim := qc.c * qc.kh * qc.kw
	dk := qc.c * h * w
	dw := make([]int8, qc.oc*dk)
	comp := make([]int32, qc.oc)
	for o := 0; o < qc.oc; o++ {
		row := qc.qw[o*kdim : (o+1)*kdim]
		drow := dw[o*dk : (o+1)*dk]
		i, sum := 0, int32(0)
		for ch := 0; ch < qc.c; ch++ {
			for sy := 0; sy < h; sy++ {
				for sx := 0; sx < w; sx++ {
					q := row[(ch*qc.kh+sy+qc.pad)*qc.kw+sx+qc.pad]
					drow[i] = q
					i++
					sum += int32(q)
				}
			}
		}
		comp[o] = 128 * sum
	}
	qc.degenQA = packQA(dw, qc.oc, dk)
	qc.degenComp = comp
	qc.degenH, qc.degenW = h, w
}
