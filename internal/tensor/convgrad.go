package tensor

import (
	"fmt"
	"math/bits"

	"drainnas/internal/metrics"
	"drainnas/internal/parallel"
)

// The backward pass of a convolution: two GEMMs over the whole batch on the
// machinery of convpanel.go, neither building a column matrix, neither
// depending on the worker count (DESIGN.md §8). The weight gradient reduces
// gradOut × the lowered input over the batch's output pixels, each gradW
// element summed by one grid cell in fixed blocks; the input gradient is a
// convolution of gradOut with the flipped kernel through the forward's driver.

// Conv2DBackward computes the gradients of Conv2D.
//
// Given gradOut (N, OC, OH, OW) it returns gradIn (N, C, H, W), accumulates
// weight gradients into gradW (OC, C, KH, KW) and, when gradB is non-nil,
// bias gradients into gradB (OC). gradW/gradB are accumulated (+=) so a
// caller can sum gradients over micro-batches. All three are bit-identical
// under any parallel.DefaultWorkers, and every transient is pooled scratch.
func Conv2DBackward(input, weight, gradOut, gradW, gradB *Tensor, stride, pad int) *Tensor {
	n, c, h, w := dims4("Conv2DBackward input", input)
	oc, wc, kh, kw := dims4("Conv2DBackward weight", weight)
	dims4("Conv2DBackward gradOut", gradOut)
	if wc != c {
		panic(fmt.Sprintf("tensor: Conv2DBackward channel mismatch input %v weight %v", input.shape, weight.shape))
	}
	g := convGeom{
		n: n, c: c, h: h, w: w, kh: kh, kw: kw, stride: stride, padY: pad, padX: pad,
		oh: ConvOut(h, kh, stride, pad), ow: ConvOut(w, kw, stride, pad),
	}
	if want := [4]int{n, oc, g.oh, g.ow}; g.pixels() <= 0 || [4]int(gradOut.shape) != want {
		panic(fmt.Sprintf("tensor: Conv2DBackward gradOut shape %v, want %v for input %v weight %v s=%d p=%d",
			gradOut.shape, want, input.shape, weight.shape, stride, pad))
	}
	if !gradW.SameShape(weight) {
		panic(fmt.Sprintf("tensor: Conv2DBackward gradW shape %v, want %v", gradW.shape, weight.shape))
	}
	if gradB != nil {
		if gradB.NDim() != 1 || gradB.shape[0] != oc {
			panic(fmt.Sprintf("tensor: Conv2DBackward gradB shape %v, want [%d]", gradB.shape, oc))
		}
		for i, px := 0, g.pixels(); i < n*oc; i++ {
			for _, v := range gradOut.data[i*px : (i+1)*px] {
				gradB.data[i%oc] += v
			}
		}
	}
	weightGrad(gradW.data, input.data, gradOut.data, oc, &g)
	gradIn := New(n, c, h, w)
	inputGrad(gradIn.data, weight.data, gradOut.data, oc, &g)
	return gradIn
}

// gradWCall carries one weight-gradient GEMM: gw (OC × K, row-major) +=
// gout (OC × P) · colsᵀ (P × K), cols being in lowered under geometry g.
type gradWCall struct {
	gw, in, gout []float32
	g            convGeom
	oc, kc       int       // output channels; pixels per reduction block
	grid         panelGrid // tap panels × row tiles of gw
}

// aliveTaps returns the kernel taps along one axis — first, count — that
// leave the padding at some output position. The rest (eight of a 3×3
// kernel's nine on a 1×1 map) multiply only zeros, in either gradient.
func aliveTaps(pad, k, in, out, s int) (first, count int) {
	first = max(0, pad-(out-1)*s)
	return first, min(k, in+pad) - first
}

// gradWBlock returns the reduction block length for rows (padded) output
// channels: gemmKC pixels, halved until packed gradOut fits the block budget.
func gradWBlock(rows int) int {
	kc := gemmKC
	for 4*kc*rows > convBlockBytes && kc > 1 {
		kc /= 2
	}
	return kc
}

func weightGrad(gw, in, gout []float32, oc int, g *convGeom) {
	mr, nr, rowTiles := gemmMR, gemmNR, (oc+gemmMR-1)/gemmMR
	job := gradWCall{gw: gw, in: in, gout: gout, g: *g, oc: oc, kc: gradWBlock(rowTiles * mr)}
	// Lower the kernel's alive taps only; if that is not all of them, their
	// gradient is summed apart and added into its place in gw at the end.
	cut := &job.g
	ky0, kh := aliveTaps(g.padY, g.kh, g.h, g.oh, g.stride)
	kx0, kw := aliveTaps(g.padX, g.kw, g.w, g.ow, g.stride)
	cut.kh, cut.kw, cut.padY, cut.padX = kh, kw, g.padY-ky0, g.padX-kx0
	if cut.kdim() < g.kdim() {
		job.gw = getScratch(oc * cut.kdim())
		clear(job.gw)
	}
	job.grid = planGrid((cut.kdim()+nr-1)/nr, rowTiles, 4*job.kc*nr, true)
	metrics.Kernel.GemmCall()
	metrics.Kernel.TilesDispatched(rowTiles * job.grid.panels)
	parallel.ForTiles2D(job.grid.blocks, job.grid.rowGroups, 0, job.run)
	if cut.kdim() < g.kdim() {
		for i := 0; i < oc*g.c*cut.kh; i++ { // row i of the cut kernels: (o·C + c, ky)
			dst := gw[((i/cut.kh)*g.kh+ky0+i%cut.kh)*g.kw+kx0:]
			for kx, v := range job.gw[i*cut.kw:][:cut.kw] {
				dst[kx] += v
			}
		}
		putScratch(job.gw)
	}
}

// run computes grid cell (tap-panel block b, row group grp) of gw: block by
// reduction block it packs its rows and its taps, multiplies, and adds to gw.
func (j *gradWCall) run(b, grp int) {
	g := &j.g
	mr, nr := gemmMR, gemmNR
	pLo, pHi, rtLo, rtHi := j.grid.cell(b, grp, (j.oc+mr-1)/mr)
	kdim, total := g.kdim(), g.n*g.pixels()
	rowBlock := getScratch((rtHi - rtLo) * j.kc * mr)
	tapBlock := getScratch((pHi - pLo) * j.kc * nr)
	cbuf := getScratch(mr * nr)
	for k0 := 0; k0 < total; k0 += j.kc {
		kc := min(j.kc, total-k0)
		packGradRows(rowBlock, j.gout, g, j.oc, rtLo*mr, rtHi*mr, k0, kc, mr)
		packTaps(tapBlock, j.in, g, pLo*nr, pHi*nr, k0, kc, nr)
		for p := pLo; p < pHi; p++ {
			cols := min(nr, kdim-p*nr)
			for rt := rtLo; rt < rtHi; rt++ {
				microKernel(rowBlock[(rt-rtLo)*kc*mr:], tapBlock[(p-pLo)*kc*nr:], cbuf, kc, false)
				for ir, rows := 0, min(mr, j.oc-rt*mr); ir < rows; ir++ {
					dst := j.gw[(rt*mr+ir)*kdim+p*nr:][:cols]
					for i, v := range cbuf[ir*nr:][:cols] {
						dst[i] += v
					}
				}
			}
		}
	}
	putScratch(cbuf)
	putScratch(tapBlock)
	putScratch(rowBlock)
}

// packGradRows packs output channels [rLo, rHi) — whole row tiles, zero past
// oc — of gradOut over reduction pixels [k0, k0+kc) for the micro-kernel's A
// side: tile after tile, each pixel-major (pixel kk, row ir at kk·mr + ir).
func packGradRows(dst, gout []float32, g *convGeom, oc, rLo, rHi, k0, kc, mr int) {
	px := g.pixels()
	for r := rLo; r < rHi; r++ {
		d := dst[(r-rLo)/mr*kc*mr+(r-rLo)%mr:]
		if r >= oc {
			for kk := 0; kk < kc; kk++ {
				d[kk*mr] = 0
			}
			continue
		}
		for col := k0; col < k0+kc; {
			s, pix, n := g.stretch(col, k0+kc)
			for i, v := range gout[(s*oc+r)*px+pix:][:n] {
				d[(col-k0+i)*mr] = v
			}
			col += n
		}
	}
}

// packTaps packs taps [tLo, tHi) — whole panels, zero past the layer's last
// — of the lowered batch over reduction pixels [k0, k0+kc) for the
// micro-kernel's B side: panel after panel, each pixel-major (pixel kk, tap
// lane l at kk·nr + l), the transpose of packPanels' layout, with the same
// walker and masks. The loop nest is run, tap, pixel: a run's mask and offset
// depend on the kernel position alone, so every channel's tap looks them up.
func packTaps(dst, in []float32, g *convGeom, tLo, tHi, k0, kc, nr int) {
	taps, hw, stride, kdim := g.kh*g.kw, g.h*g.w, g.stride, g.kdim()
	var r colRun
	var masks [64]uint32 // by kernel position; a larger kernel works them out per tap
	var offs [64]int
	for wk := g.walk(k0, k0+kc, 32); wk.next(&r); { // runs of 32: a mask is a uint32
		for t := 0; t < min(taps, len(masks)); t++ {
			masks[t], offs[t] = g.tapMask(&r, t/g.kw, t%g.kw), g.tapOffset(&r, t/g.kw, t%g.kw)
		}
		span := (r.n-1)*stride + 1
		ch, t := tLo/taps, tLo%taps
		at, lane := r.col*nr, 0 // the tap's lane, in the run's stretch of its panel
		for tap := tLo; tap < tHi; tap++ {
			mask, first := uint32(0), ch*hw
			if t < len(masks) {
				mask, first = masks[t], first+offs[t]
			} else {
				mask, first = g.tapMask(&r, t/g.kw, t%g.kw), first+g.tapOffset(&r, t/g.kw, t%g.kw)
			}
			if tap >= kdim {
				mask = 0 // a lane past the layer's last tap
			}
			if first >= 0 && first+span <= len(in) {
				spreadLane(dst[at:], in[first:first+span], nr, stride, ^mask&(1<<r.n-1))
			} else { // at an end of the batch, padding would read outside the tensor
				for i := 0; i < r.n; i++ {
					dst[at+i*nr] = 0
					if mask>>i&1 != 0 {
						dst[at+i*nr] = in[first+i*stride]
					}
				}
			}
			if t++; t == taps {
				ch, t = ch+1, 0
			}
			if at, lane = at+1, lane+1; lane == nr {
				at, lane = at+(kc-1)*nr, 0
			}
		}
	}
}

// spreadLane writes src[0], src[stride], … down one lane of a pixel-major
// panel — dst[0], dst[nr], … — then clears the pixels whose bit is set in
// zero: moving a padding pixel's neighbour costs less than a branch.
func spreadLane(dst, src []float32, nr, stride int, zero uint32) {
	di, si := 0, 0
	for ; si+3*stride < len(src); di, si = di+4*nr, si+4*stride {
		dst[di], dst[di+nr], dst[di+2*nr], dst[di+3*nr] = src[si], src[si+stride], src[si+2*stride], src[si+3*stride]
	}
	for ; si < len(src); di, si = di+nr, si+stride {
		dst[di] = src[si]
	}
	for ; zero != 0; zero &= zero - 1 {
		dst[bits.TrailingZeros32(zero)*nr] = 0
	}
}

// lattice places one phase of a strided layer's input gradient in the (h × w)
// map: phase pixel (a, b) is map pixel (y0 + a·step, x0 + b·step).
type lattice struct {
	step, y0, x0, h, w int
}

// scatter writes src, consecutive pixels of a phase map ow wide from pix on,
// to their places in the given plane of out.
func (l *lattice) scatter(out []float32, plane, pix, ow int, src []float32) {
	a, b := pix/ow, pix%ow
	for _, v := range src {
		out[(plane*l.h+l.y0+a*l.step)*l.w+l.x0+b*l.step] = v
		if b++; b == ow {
			a, b = a+1, 0
		}
	}
}

// phaseTaps returns, for the size gradient positions congruent to p modulo
// the stride s along one axis, the kernel taps that reach one of the out
// output positions — first, first+s, …, count of them — and the padding of the
// phase's stride-1 convolution, whose taps are those reversed (see inputGrad).
func phaseTaps(p, pad, k, s, size, out int) (first, count, phasePad int) {
	first, count = (p+pad)%s, (k-(p+pad)%s+s-1)/s
	phasePad = count - 1 - (p+pad)/s
	lo, alive := aliveTaps(phasePad, count, out, size, 1)
	return first + (count-lo-alive)*s, alive, phasePad - lo
}

// gradPhase is one phase of an input gradient: its convolution and weight
// pack, its first kernel tap per axis, its first cell in the shared grid.
type gradPhase struct {
	convCall
	pack           weightPack
	firstY, firstX int
	cell0          int
}

// inputGrad writes gin (N, C, H, W), the gradient of the forward geometry
// g's input, from the weights w (OC, C, KH, KW) and gout (N, OC, OH, OW).
// gin[y] collects w[ky]·gout[oy] over the taps with oy·s − pad + ky = y. With
// y = a·s + p and ky = first + j·s, first = (p+pad) mod s, that is oy = a +
// (p+pad)/s − j: over a, a stride-1 convolution of gout with the residue's
// taps reversed, padded by count − 1 − (p+pad)/s. Where a phase has no tap
// (a pointwise layer of stride 2) gin stays zero, as New left it.
func inputGrad(gin, w, gout []float32, oc int, g *convGeom) {
	s := g.stride
	phases := make([]gradPhase, 0, s*s)
	cells := 0
	for py := 0; py < min(s, g.h); py++ {
		firstY, jy, padY := phaseTaps(py, g.padY, g.kh, s, (g.h-py+s-1)/s, g.oh)
		for px := 0; px < min(s, g.w); px++ {
			firstX, jx, padX := phaseTaps(px, g.padX, g.kw, s, (g.w-px+s-1)/s, g.ow)
			if jy <= 0 || jx <= 0 {
				continue
			}
			phases = append(phases, gradPhase{firstY: firstY, firstX: firstX, cell0: cells})
			ph := &phases[len(phases)-1]
			ph.convCall = convCall{
				out: gin, in: gout, wp: &ph.pack,
				g: convGeom{
					n: g.n, c: oc, h: g.oh, w: g.ow, kh: jy, kw: jx, stride: 1, padY: padY, padX: padX,
					oh: (g.h - py + s - 1) / s, ow: (g.w - px + s - 1) / s,
				},
			}
			ph.lattice = lattice{step: s, y0: py, x0: px, h: g.h, w: g.w}
			ph.pack.pa = newPackedA(g.c, oc*jy*jx) // filled by packGradWeights below
			ph.plan()
			cells += ph.grid.blocks * ph.grid.rowGroups
		}
	}
	packGradWeights(phases, w, oc, g)
	parallel.ForTiles2D(cells, 1, 0, func(cell, _ int) {
		ph := &phases[0]
		for i := 1; i < len(phases) && phases[i].cell0 <= cell; i++ {
			ph = &phases[i]
		}
		cell -= ph.cell0
		ph.run(cell/ph.grid.rowGroups, cell%ph.grid.rowGroups)
	})
	for i := range phases {
		phases[i].pack.pa.release()
	}
}

// packGradWeights packs every phase's A panels straight from the forward's
// weights w (OC, C, KH, KW), in packA's layout: row c, column (o, j, i) of a
// phase is w[o, c, firstY + (jy−1−j)·s, firstX + (jx−1−i)·s]. It goes by
// output channel, so the weights are read once, front to back.
func packGradWeights(phases []gradPhase, w []float32, oc int, g *convGeom) {
	mr, s, taps := gemmMR, g.stride, g.kh*g.kw
	// One worker below the cutoff: the fan-out would cost more than the pack.
	parallel.ForChunked(oc, min(parallel.DefaultWorkers, 1+oc*g.kdim()/gemmSerialCutoff), func(oLo, oHi int) {
		for o := oLo; o < oHi; o++ {
			for p := range phases {
				ph, pa := &phases[p], &phases[p].pack.pa
				for rt := 0; rt < pa.rowTiles; rt++ {
					rows := min(mr, g.c-rt*mr)
					src := w[(o*g.c+rt*mr)*taps:]
					// A row tile's k blocks lie end to end: column kk is at kk·mr.
					dst := pa.buf[(rt*pa.kBlocks*gemmKC+o*ph.g.kh*ph.g.kw)*mr:]
					for j := ph.g.kh - 1; j >= 0; j-- {
						for i := ph.g.kw - 1; i >= 0; i-- {
							si := (ph.firstY+j*s)*g.kw + ph.firstX + i*s
							for ir := 0; ir < mr; ir, si = ir+1, si+taps {
								dst[ir] = 0
								if ir < rows {
									dst[ir] = src[si]
								}
							}
							dst = dst[mr:]
						}
					}
				}
			}
		}
	})
}
