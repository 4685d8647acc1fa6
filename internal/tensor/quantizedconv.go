package tensor

import (
	"encoding/binary"
	"fmt"
	"math"

	"drainnas/internal/parallel"
)

// QuantizedConv is the int8 execution unit of quantized inference plans:
// the integer sibling of PackedConv. Construction quantizes the float
// weights per output channel (bounded to ±QWeightMax for the AVX2 kernel's
// saturation-free guarantee), packs them into the micro-kernel's panels,
// precomputes the +128 activation-offset compensation, and folds the
// input/weight/output scales plus the bias into a per-channel requantize
// epilogue fused with the optional ReLU. The packed panels are the only
// copy of the weights it keeps, and a steady-state forward allocates
// nothing beyond pooled scratch.
//
// A QuantizedConv is immutable after construction and safe for concurrent
// use.
type QuantizedConv struct {
	convShape
	qa   packedQA  // the quantized weights, |q| ≤ QWeightMax, packed
	comp []int32   // per-oc u8-offset compensation: 128·Σ_k q[o][k]
	mult []float32 // per-oc epilogue multiplier (see below)
	add  []float32 // per-oc epilogue addend (see below)
}

// NewQuantizedConv builds the int8 form of a convolution with float weight
// (OC, C, KH, KW), optional bias (nil or length OC), stride, padding and an
// optional fused ReLU. inScale is the symmetric scale of the s8 input
// activations and outScale that of the s8 output the epilogue requantizes
// to; a scale that is not a usable positive float degrades to 1, as in
// QuantizeInto.
//
// The fused epilogue evaluates, per output channel o and int32 accumulator
// acc:
//
//	v = mult[o]·(acc − comp[o]) + add[o]
//
// with mult[o] = inScale·wScale[o]/outScale and add[o] = bias[o]/outScale;
// v is then rounded and clamped, ReLU as a 0 lower clamp.
func NewQuantizedConv(weight *Tensor, bias []float32, stride, pad int, relu bool, inScale, outScale float32) *QuantizedConv {
	return newQuantizedConv(newConvShape("NewQuantizedConv", weight, bias, stride, pad, relu), weight.data, bias, inScale, outScale)
}

// newQuantizedConv is NewQuantizedConv over a validated shape and its
// (OC, C·KH·KW) row-major weight.
func newQuantizedConv(shape convShape, weight, bias []float32, inScale, outScale float32) *QuantizedConv {
	inScale, outScale = sanitizeScale(inScale), sanitizeScale(outScale)
	oc, kdim := shape.oc, shape.c*shape.kh*shape.kw
	qw, wScales := QuantizeWeightsPerChannel(weight, oc, kdim)

	qc := &QuantizedConv{
		convShape: shape,
		qa:        packQA(qw, oc, kdim),
		comp:      make([]int32, oc),
		mult:      make([]float32, oc),
		add:       make([]float32, oc),
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
		qc.mult[o], qc.add[o] = m/outScale, b/outScale
	}
	return qc
}

// ForwardInto convolves the s8 input (n, C, h, w flat) into the s8 output
// out, a flat (n, OC, OH, OW) buffer the caller sized from OutSize. It
// allocates nothing beyond pooled scratch. The lowering is the float
// driver's (convpanel.go): one GEMM over the whole batch's output pixels,
// column blocks packed straight from the images, so a batch-1 forward still
// spreads over every core and a sample's output is the same bytes in any
// batch.
func (qc *QuantizedConv) ForwardInto(out, in []int8, n, h, w int) {
	if len(in) != n*qc.c*h*w {
		panic(fmt.Sprintf("tensor: QuantizedConv input length %d, want %d", len(in), n*qc.c*h*w))
	}
	oh, ow := qc.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: QuantizedConv produces empty output for input %dx%d", h, w))
	}
	if want := n * qc.oc * oh * ow; len(out) != want {
		panic(fmt.Sprintf("tensor: QuantizedConv output length %d, want %d", len(out), want))
	}

	job := qconvCall{qc: qc, out: out, in: in, g: qc.geom(n, h, w)}
	qa := &qc.qa
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
// a method (direct-callable on the serial path).
type qconvCall struct {
	qc      *QuantizedConv
	out, in []int8
	g       convGeom
	grid    panelGrid
}

// run executes grid cell (column block b, row group grp): pack the block's
// panels from the images, run the micro-kernel over its row tiles, and
// merge each int32 tile through the fused requantize epilogue.
func (j *qconvCall) run(b, grp int) {
	qa := &j.qc.qa
	pLo, pHi, rtLo, rtHi := j.grid.cell(b, grp, qa.rowTiles)
	panel := qa.kQuads * qNR * 4
	block := scratchU8.get((pHi - pLo) * panel)
	masks := scratchI32.get(j.g.kh * j.g.kw)
	packQPanels(block, j.in, &j.g, pLo*qNR, pHi*qNR, masks)
	scratchI32.put(masks)
	// The tile accumulator comes from the scratch pool: qKernel is a func
	// variable, so a local array would escape on every call. Its spare row
	// is room for qstoreTile, which reads all sixteen lanes of a row from
	// wherever a stretch starts.
	cbuf := scratchI32.get((qMR + 1) * qNR)
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
	qc, g := j.qc, &j.g
	qa := &qc.qa
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
	lo := float32(-QActMax)
	if qc.relu {
		lo = 0
	}
	for col < end {
		s, pix, n := g.stretch(col, end)
		lane := col - p*qNR
		at := (s*qa.m+rt*qMR)*px + pix
		if qForwardAVX2 {
			o := rt * qMR
			qstoreTile(&j.out[at], &cbuf[lane], &qc.comp[o], &qc.mult[o], &qc.add[o], px, rows, n, lo)
		} else {
			for r := 0; r < rows; r++ {
				j.storeRow(j.out[at+r*px:at+r*px+n], cbuf[r*qNR+lane:r*qNR+lane+n], rt*qMR+r, float64(lo))
			}
		}
		col += n
	}
}

// storeRow is the fused requantize epilogue of output channel o with the
// lower clamp lo (0 under ReLU): the path without AVX2 and qstoreTile's
// oracle, which rounds at the same points eight lanes at a time.
func (j *qconvCall) storeRow(dst []int8, src []int32, o int, lo float64) {
	qc := j.qc
	mult, addend, co := qc.mult[o], qc.add[o], qc.comp[o]
	// The clamps are min/max, not branches: after a ReLU-bound layer half
	// the values are negative, and a compare-and-jump per value mispredicts
	// on every other one.
	for i, acc := range src {
		v := math.RoundToEven(float64(mult*float32(acc-co) + addend))
		dst[i] = int8(min(max(v, lo), QActMax))
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
// activations on every call). Under AVX2, packQRun moves each column run:
// per k-quad, four 16-byte tap reads (32-byte at stride 2, evens kept),
// padding lanes cleared by a mask, interleaved into dwords and offset in
// one XOR, stored through a lane mask that writes the run's own lanes and
// nothing past them. The run that ends the batch inside a panel also
// writes the panel's remaining lanes, as 0x80. Without AVX2, at strides
// above 2, and for an input too short for one 32-byte read, the Go loop
// packQPanelsGo packs instead.
func packQPanels(dst []uint8, in []int8, g *convGeom, lo, hi int, masks []int32) {
	if !qForwardAVX2 || g.stride > 2 || len(in) < 32 {
		packQPanelsGo(dst, in, g, lo, hi, masks)
		return
	}
	const nr = qNR
	panel := (g.kdim() + 3) / 4 * nr * 4
	end := min(hi, g.n*g.pixels())
	var r colRun
	for wk := g.walk(lo, end, nr); wk.next(&r); {
		for ky := 0; ky < g.kh; ky++ {
			for kx := 0; kx < g.kw; kx++ {
				masks[ky*g.kw+kx] = int32(g.tapMask(&r, ky, kx))
			}
		}
		store := r.n
		if end < hi && r.col+r.n == end-lo {
			store = nr - r.lane
		}
		packQRun(&dst[r.col/nr*panel+r.lane*4], &in[0], len(in)-16*g.stride, g.tapOffset(&r, 0, 0),
			g.h*g.w, g.w-g.kw, g.kw, &masks[0], g.kh*g.kw, g.c, g.stride, store)
	}
}

// packQPanelsGo is packQPanels as a Go loop, a whole k-quad at a time: the
// four taps of a column land as one dword store, with the +128 offset
// folded in as a single 32-bit XOR. It is the path without AVX2 and
// packQRun's oracle.
func packQPanelsGo(dst []uint8, in []int8, g *convGeom, lo, hi int, masks []int32) {
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
