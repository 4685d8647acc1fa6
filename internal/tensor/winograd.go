package tensor

import (
	"sync"

	"drainnas/internal/metrics"
	"drainnas/internal/parallel"
)

// Winograd F(2×2, 3×3) for the fp32 forward's stride-1 3×3 convolutions.
//
// Each 2×2 block of a "same" 3×3 convolution's output — a tile — is a
// function of the 4×4 input patch around it, and Winograd's minimal
// filtering algorithm computes it as Y = Aᵀ·[Σ_c U_c ⊙ V_c]·A with
// V_c = Bᵀ·d_c·B (the patch of channel c, transformed) and U_c = G·g_c·Gᵀ
// (the filter, transformed once). Over the sixteen points ξ of the 4×4
// transform domain the channel sum is sixteen independent GEMMs, (OC × C)
// times (C × tiles): 16 multiplies per tile and channel pair where the
// direct convolution spends 36, 2.25× fewer.
//
// The lowering reuses the direct driver's parts. The filters are
// transformed once, on first use, into sixteen sets of A panels in packA's
// layout (M = OC, K = C). The tiles take the place of the output pixels as
// GEMM columns: cut into panels of sixteen, in (sample, tile row, tile
// column) order. A grid cell takes each of its panels in turn: winoInput
// transforms the panel's patches straight into sixteen k-major B panels,
// one per ξ, in blocks of fewer than gemmKC channels, so no scratch request
// exceeds convBlockBytes; the micro-kernel multiplies them by each row tile
// of U into sixteen accumulator tiles; and winoOutput turns those into the
// tiles' 2×2 outputs through the fused epilogue (bias, ReLU, residual join)
// that storeTile runs for the direct path.
//
// What takes the path is fixed by the layer's shape alone (winoTakes), and
// every tile's result is its own lane's arithmetic in a fixed order, so a
// sample's output is bit-identical in any batch and under any worker
// count. The transforms are AVX2 assembly and the path runs only where the
// AVX2 micro-kernel does: everywhere else (and for Conv2D, so for all of
// training) the direct path runs, and it stays the oracle the tests hold
// this one to.

const (
	// winoPoints is the number of transform-domain points ξ: 4×4.
	winoPoints = 16
	// winoKC is the most channels in one block of transformed patches: the
	// block, sixteen B panels of winoKC rows and a spare row each (see
	// xiStride), fills convBlockBytes.
	winoKC = gemmKC - 1
	// winoMaxKBlocks bounds the channel blocks of a panel a cell keeps at
	// once (C ≤ 1020).
	winoMaxKBlocks = 4
	// winoMinC is the rule's channel threshold. Below eight input channels
	// (the PaperSpace stems have five or seven) each of the sixteen
	// multiplies is a few k steps long, the transforms weigh as much as the
	// multiplies, and the paired runs behind DESIGN §8's table measured
	// 1.0–1.45× over the direct path, inside the box's run-to-run spread;
	// from eight on they measured about 1.6× and up.
	winoMinC = 8
)

// winoTakes is the rule that routes a 3×3 stride-1 pad-1 convolution of c
// input channels onto an oh×ow output map to the Winograd path: at least
// winoMinC channels, and fewer multiply-adds than the direct path even
// for a lone sample, whose last panel of sixteen tiles is part empty —
// sixteen points × sixteen lanes per panel against nine taps per output.
// That leaves maps under 6×6 direct: at 4×4 a lone sample fills a quarter
// of its panel and, with 256 or 512 channels, ran 0.7–0.85× the direct
// path. The rule reads the shape alone, never the batch, so a sample's
// logits do not depend on the company it keeps.
func winoTakes(c, oh, ow int) bool {
	if !forwardAVX2 || gemmMR != 6 || gemmNR != 16 || c > winoMaxKBlocks*winoKC {
		return false
	}
	tiles := ((oh + 1) / 2) * ((ow + 1) / 2)
	panels := (tiles + gemmNR - 1) / gemmNR
	return winoAnyShape || c >= winoMinC && winoPoints*gemmNR*panels < 9*oh*ow
}

// winoAnyShape lifts the rule's thresholds; the tests set it to hold the
// path to the direct one on shapes the rule leaves direct.
var winoAnyShape = false

// winoPack holds the transformed filters of one convolution, built on the
// first Winograd call. Slot (rt, ξ, kb) is the gemmMR × kc block of U_ξ's
// row tile rt and channel block kb, laid out as packA lays a slot out
// (k-major, rows padded with zeros), and a row tile's slots are adjacent so
// the inner loops stream them in order.
type winoPack struct {
	src   []float32 // (OC, C, 3, 3)
	oc, c int

	once     sync.Once
	buf      []float32
	rowTiles int
	kBlocks  int
	kc       int // channels per block, the last may have fewer; a slot's k extent
}

// panels transforms and packs the filters on first use, the row tiles
// split across packWorkers workers. The buffer is the plan's for good, so
// it comes from the heap, not the scratch pools.
func (wp *winoPack) panels() {
	wp.once.Do(func() {
		mr := gemmMR
		wp.rowTiles = (wp.oc + mr - 1) / mr
		wp.kBlocks = (wp.c + winoKC - 1) / winoKC
		wp.kc = (wp.c + wp.kBlocks - 1) / wp.kBlocks
		wp.buf = make([]float32, wp.rowTiles*winoPoints*wp.kBlocks*wp.kc*mr)
		xiStride := wp.slot(0, 1, 0)
		parallel.ForChunked(wp.rowTiles, packWorkers(len(wp.src)), func(lo, hi int) {
			var u [winoPoints]float32
			for o := lo * mr; o < min(hi*mr, wp.oc); o++ {
				rt, ir := o/mr, o%mr
				for ch := 0; ch < wp.c; ch++ {
					winoFilter(&u, wp.src[(o*wp.c+ch)*9:(o*wp.c+ch)*9+9])
					at := wp.slot(rt, 0, ch/wp.kc) + ch%wp.kc*mr + ir
					for _, v := range u {
						wp.buf[at] = v
						at += xiStride
					}
				}
			}
		})
	})
}

// slot returns the offset of slot (rt, ξ, kb) in buf.
func (wp *winoPack) slot(rt, xi, kb int) int {
	return ((rt*winoPoints+xi)*wp.kBlocks + kb) * wp.kc * gemmMR
}

// winoFilter sets u to G·g·Gᵀ for the 3×3 filter g (row-major), point ξ =
// 4i + j at u[ξ], with G = [1 0 0; ½ ½ ½; ½ −½ ½; 0 0 1]. It works in
// float64 and rounds each point once.
func winoFilter(u *[winoPoints]float32, g []float32) {
	var t [4][3]float64 // G·g
	for kx := 0; kx < 3; kx++ {
		g0, g1, g2 := float64(g[kx]), float64(g[3+kx]), float64(g[6+kx])
		t[0][kx], t[1][kx], t[2][kx], t[3][kx] = g0, (g0+g1+g2)/2, (g0-g1+g2)/2, g2
	}
	for i := range t {
		g0, g1, g2 := t[i][0], t[i][1], t[i][2]
		u[4*i], u[4*i+1], u[4*i+2], u[4*i+3] = float32(g0), float32((g0+g1+g2)/2), float32((g0-g1+g2)/2), float32(g2)
	}
}

// winoCall carries one Winograd convolution, as convCall carries a direct
// one, so the per-cell body is a method.
type winoCall struct {
	out, in, join []float32
	bias          []float32
	relu          bool
	wp            *winoPack
	n, c, h, w    int // input; the output map is h×w too
	oc            int
	tw, tiles     int // tiles per tile row and per sample
	grid          panelGrid
}

// winoGroup is up to eight consecutive tiles of one tile row inside one
// panel: the unit both transforms take.
type winoGroup struct {
	lane, n int // first lane in the panel, tiles
	s       int // sample
	ty, tx  int // first tile
}

// winoInto runs the convolution of input into out on the Winograd path;
// shapes are validated and winoTakes holds.
func winoInto(out, input *Tensor, wp *winoPack, bias []float32, relu bool, join *Tensor) {
	wp.panels()
	job := winoCall{
		out: out.data, in: input.data, bias: bias, relu: relu, wp: wp,
		n: input.shape[0], c: input.shape[1], h: input.shape[2], w: input.shape[3],
		oc: out.shape[1],
	}
	if join != nil {
		job.join = join.data
	}
	job.tw = (job.w + 1) / 2
	job.tiles = (job.h + 1) / 2 * job.tw
	panels := (job.n*job.tiles + gemmNR - 1) / gemmNR
	job.grid = planGrid(panels, wp.rowTiles, 4*winoPoints*wp.kc*gemmNR, false)
	metrics.Kernel.GemmCall()
	metrics.Kernel.TilesDispatched(winoPoints * wp.rowTiles * panels * wp.kBlocks)
	cellsI, cellsJ := job.grid.blocks, job.grid.rowGroups
	if parallel.DefaultWorkers == 1 || cellsI*cellsJ == 1 {
		for i := 0; i < cellsI; i++ {
			for j := 0; j < cellsJ; j++ {
				job.run(i, j)
			}
		}
		return
	}
	pjob := job
	parallel.ForTiles2D(cellsI, cellsJ, 0, pjob.run)
}

// run executes grid cell (column block b, row group grp): for each panel,
// the input transform, then per row tile the sixteen multiplies and the
// output transform.
func (j *winoCall) run(b, grp int) {
	wp, nr, mr := j.wp, gemmNR, gemmMR
	pLo, pHi, rtLo, rtHi := j.grid.cell(b, grp, wp.rowTiles)
	var blocks [winoMaxKBlocks][]float32
	for kb := 0; kb < wp.kBlocks; kb++ {
		blocks[kb] = scratchF32.get(winoPoints * j.xiStride(kb))
	}
	// Sixteen accumulator tiles, point ξ at ξ·mr·nr; the spare row is room
	// for winoOutput, which reads eight lanes from wherever a group starts.
	m := scratchF32.get((winoPoints*mr + 1) * nr)
	var groups [gemmMaxNR]winoGroup
	for p := pLo; p < pHi; p++ {
		gs := j.groups(p, &groups)
		for kb := 0; kb < wp.kBlocks; kb++ {
			j.transformIn(blocks[kb], kb, gs)
		}
		for rt := rtLo; rt < rtHi; rt++ {
			a := wp.buf[wp.slot(rt, 0, 0):]
			for xi := 0; xi < winoPoints; xi++ {
				for kb := 0; kb < wp.kBlocks; kb++ {
					microKernel(a, blocks[kb][xi*j.xiStride(kb):], m[xi*mr*nr:], j.kc(kb), kb > 0)
					a = a[wp.kc*mr:]
				}
			}
			for i := range gs {
				j.transformOut(m, rt, &gs[i])
			}
		}
	}
	scratchF32.put(m)
	for kb := 0; kb < wp.kBlocks; kb++ {
		scratchF32.put(blocks[kb])
	}
}

// kc returns the channels of channel block kb.
func (j *winoCall) kc(kb int) int { return min(j.c-kb*j.wp.kc, j.wp.kc) }

// xiStride returns how far apart the B panels of two points are in channel
// block kb's buffer: kc rows of gemmNR lanes and one spare row, so that
// where kc·64 bytes is a power of two the sixteen panels a channel's
// transform writes do not all fall in one cache set.
func (j *winoCall) xiStride(kb int) int { return (j.kc(kb) + 1) * gemmNR }

// groups cuts panel p into groups and returns them.
func (j *winoCall) groups(p int, buf *[gemmMaxNR]winoGroup) []winoGroup {
	nr := gemmNR
	t, end := p*nr, min(p*nr+nr, j.n*j.tiles)
	gs := buf[:0]
	for t < end {
		s, r := t/j.tiles, t%j.tiles
		g := winoGroup{lane: t - p*nr, s: s, ty: r / j.tw, tx: r % j.tw}
		g.n = min(j.tw-g.tx, end-t, 8)
		gs = append(gs, g)
		t += g.n
	}
	return gs
}

// transformIn writes channel block kb of the groups' patches into blk, the
// sixteen k-major B panels of one panel, and zeroes the lanes past the last
// tile of the batch.
func (j *winoCall) transformIn(blk []float32, kb int, gs []winoGroup) {
	kc, stride, hw, nr := j.kc(kb), j.xiStride(kb), j.h*j.w, gemmNR
	for i := range gs {
		g := &gs[i]
		y0, x0 := 2*g.ty-1, 2*g.tx-1
		rows := 0
		for r := 0; r < 4; r++ {
			if y := y0 + r; y >= 0 && y < j.h {
				rows |= 1 << r
			}
		}
		winoInput(&blk[g.lane], &j.in[(g.s*j.c+kb*j.wp.kc)*hw], y0*j.w+x0, j.w, hw, kc,
			stride, max(-x0, 0), j.w-x0, g.n, rows)
	}
	last := &gs[len(gs)-1]
	if used := last.lane + last.n; used < nr {
		for xi := 0; xi < winoPoints; xi++ {
			for ch := 0; ch < kc; ch++ {
				clear(blk[xi*stride+ch*nr+used : xi*stride+(ch+1)*nr])
			}
		}
	}
}

// transformOut stores group g's outputs of row tile rt from the
// accumulator tiles m.
func (j *winoCall) transformOut(m []float32, rt int, g *winoGroup) {
	mr := gemmMR
	ohw := j.h * j.w
	oy, ox := 2*g.ty, 2*g.tx
	at := (g.s*j.oc+rt*mr)*ohw + oy*j.w + ox
	pairs := 1
	if oy+1 < j.h {
		pairs = 2
	}
	bias, join := &noBias[0], (*float32)(nil)
	if j.bias != nil {
		bias = &j.bias[rt*mr]
	}
	if j.join != nil {
		join = &j.join[at]
	}
	winoOutput(&j.out[at], &m[g.lane], join, bias, ohw, j.w, min(mr, j.oc-rt*mr), min(2*g.n, j.w-ox), pairs, j.relu)
}
