package tensor

import "drainnas/internal/parallel"

// Column-panel lowering shared by the float and int8 convolution drivers.
//
// A convolution over a batch is one GEMM: the packed weights (OC × K, with
// K = C·KH·KW) times a column matrix with one column per output pixel of
// every sample, N·OH·OW in all. The column matrix is never built. Columns
// are cut into panels of the micro-kernel's width, panels into blocks, and
// each worker packs a block straight from the input images into the k-major
// panel layout the micro-kernel reads, multiplies it by the row tiles of the
// weight pack while it is cache-resident, and stores each finished tile at
// its (sample, channel, pixel) address through the fused epilogue.
//
// What a sample's outputs are does not depend on where its columns fall:
// every output element is one micro-kernel lane accumulating the same taps
// in the same order, whichever panel, block or worker it lands in. So a
// sample's result is bit-identical in any batch and under any worker count.

const (
	// convBlockBytes is the budget for one packed column block. The block
	// is read once per row tile, so it should stay in L2 beside the weight
	// panels streaming past it: half of the 512 KiB L2 the rule assumes.
	convBlockBytes = 256 << 10
	// convWeightBytes is the packed-weight size up to which the whole
	// weight pack stays in L2 beside the block (the other half of that L2).
	// Up to it a cell walks panel-outer: each panel is used while it is
	// hot in L1 and the weights re-stream from L2. Above it a cell walks
	// row-tile-outer: one row tile stays put while the block's panels
	// stream from L2, and the weights come from memory once per block
	// instead of once per panel.
	convWeightBytes = 256 << 10
	// convCellsPerWorker is how many grid cells the panel-outer split aims
	// at per worker, so the dynamic scheduler can even out a slow core.
	// Row-tile-outer layers aim at one: every extra cell streams the
	// weights from memory again.
	convCellsPerWorker = 4
)

// convGeom is the geometry of one convolution call: the batch of input
// planes, the kernel window and the output map. The padding is per axis, and
// may be negative (a crop), for the phases of an input gradient (convgrad.go).
type convGeom struct {
	n, c, h, w int
	kh, kw     int
	stride     int
	padY, padX int
	oh, ow     int
}

// kdim returns K, the number of taps per output value.
func (g *convGeom) kdim() int { return g.c * g.kh * g.kw }

// pixels returns the output pixels of one sample.
func (g *convGeom) pixels() int { return g.oh * g.ow }

// panelGrid is the work split of one lowered convolution: column blocks of
// blockPanels panels each, times rowGroups groups of row tiles.
type panelGrid struct {
	panels      int // column panels over the whole batch
	blockPanels int // panels per column block
	blocks      int // column blocks
	rowGroups   int // row-tile groups per block
	rowOuter    bool
}

// planPanelGrid sizes the grid from the layer alone: the panel count, the
// row tiles of the weight pack, and the bytes of the weight pack and of one
// packed panel. Row groups appear only when the columns give fewer blocks
// than there are workers (a deep layer at batch 1); each group then packs
// the block for itself, which costs 1/rows-per-group of its multiply.
func planPanelGrid(panels, rowTiles, weightBytes, panelBytes int) panelGrid {
	return planGrid(panels, rowTiles, panelBytes, weightBytes > convWeightBytes)
}

// planGrid is planPanelGrid given the walk order. rowOuter aims at one cell
// per worker: each fetches (the weight gradient: packs) all the weights.
func planGrid(panels, rowTiles, panelBytes int, rowOuter bool) panelGrid {
	g := panelGrid{panels: panels, rowGroups: 1, rowOuter: rowOuter}
	maxPanels := convBlockBytes / panelBytes
	if maxPanels < 1 {
		maxPanels = 1
	}
	workers := parallel.DefaultWorkers
	want := workers
	if !g.rowOuter {
		want *= convCellsPerWorker
	}
	if want > panels {
		want = panels
	}
	blocks := (panels + maxPanels - 1) / maxPanels
	if blocks < want {
		blocks = want
	}
	g.blockPanels = (panels + blocks - 1) / blocks
	g.blocks = (panels + g.blockPanels - 1) / g.blockPanels
	if g.blocks < workers {
		g.rowGroups = (workers + g.blocks - 1) / g.blocks
		if g.rowGroups > rowTiles {
			g.rowGroups = rowTiles
		}
	}
	return g
}

// cell returns the panels [pLo, pHi) and row tiles [rtLo, rtHi) of grid cell
// (column block b, row group grp).
func (g *panelGrid) cell(b, grp, rowTiles int) (pLo, pHi, rtLo, rtHi int) {
	pLo = b * g.blockPanels
	pHi = pLo + g.blockPanels
	if pHi > g.panels {
		pHi = g.panels
	}
	rtLo, rtHi = parallel.SplitRange(rowTiles, g.rowGroups, grp)
	return pLo, pHi, rtLo, rtHi
}

// stretch returns where the output of GEMM columns [col, end) begins — the
// sample and the pixel within it — and how many of those columns stay in
// that sample. A panel's columns are consecutive pixels, so a finished tile
// row lands as one contiguous store per stretch.
func (g *convGeom) stretch(col, end int) (sample, pix, n int) {
	px := g.pixels()
	sample, pix = col/px, col%px
	n = px - pix
	if n > end-col {
		n = end - col
	}
	return sample, pix, n
}

// colRun is a stretch of consecutive GEMM columns, inside one panel and one
// sample, whose source values under any one tap sit `stride` apart in
// memory. It is the unit the packers copy. Consecutive pixels of an output
// row always qualify; when the output map is as wide as the input and the
// stride is 1 (a "same" convolution, most of a ResNet) the next output row
// continues where the last one ended, so a run carries on across rows and a
// panel inside one sample is a single run.
type colRun struct {
	col    int // first column, counted from the start of the walk
	lane   int // col's lane in its panel
	n      int // columns in the run
	sample int
	oy, ox int // output pixel of the first column
}

// runWalker cuts a column range into runs. Both packers drive it, so the
// float and int8 lowerings cannot disagree about which pixel a column is.
type runWalker struct {
	g         *convGeom
	nr        int
	col, end  int // next column and end of the range, counted from its start
	lane      int // lane of the next column
	s, oy, ox int // the pixel the next column stands for
}

// walk starts a walker over global columns [lo, hi); lo is panel-aligned
// and hi does not exceed the batch's n·oh·ow columns.
func (g *convGeom) walk(lo, hi, nr int) runWalker {
	px := g.pixels()
	pix := lo % px
	return runWalker{g: g, nr: nr, end: hi - lo, s: lo / px, oy: pix / g.ow, ox: pix % g.ow}
}

// next writes the next run to r, or reports false at the end of the range.
// After a run that completes a panel, lane is back at 0.
func (w *runWalker) next(r *colRun) bool {
	if w.col >= w.end {
		return false
	}
	g := w.g
	n := g.ow - w.ox
	if g.stride == 1 && g.ow == g.w {
		n += (g.oh - 1 - w.oy) * g.ow // to the end of the sample
	}
	if rest := w.end - w.col; rest < n {
		n = rest
	}
	if room := w.nr - w.lane; room < n {
		n = room
	}
	*r = colRun{col: w.col, lane: w.lane, n: n, sample: w.s, oy: w.oy, ox: w.ox}
	w.col += n
	if w.lane += n; w.lane == w.nr {
		w.lane = 0
	}
	w.ox += n
	w.oy += w.ox / g.ow
	w.ox %= g.ow
	if w.oy == g.oh {
		w.oy = 0
		w.s++
	}
	return true
}

// tapMask returns, as bit i for column i of the run, whether tap (ky, kx) of
// that column's pixel lies inside the image rather than in the padding.
func (g *convGeom) tapMask(r *colRun, ky, kx int) (mask uint32) {
	oy, ox := r.oy, r.ox
	for i := 0; i < r.n; oy++ {
		m := g.ow - ox // columns of the run in output row oy
		if m > r.n-i {
			m = r.n - i
		}
		if sy := oy*g.stride - g.padY + ky; sy >= 0 && sy < g.h {
			// Column t of the row reads input column x0 + t·stride.
			x0 := ox*g.stride - g.padX + kx
			lo, hi := 0, 0
			if x0 < 0 {
				lo = (-x0 + g.stride - 1) / g.stride
			}
			if x0 < g.w {
				hi = (g.w-1-x0)/g.stride + 1
			}
			if hi > m {
				hi = m
			}
			if lo < hi {
				mask |= (1<<hi - 1<<lo) << i
			}
		}
		i += m
		ox = 0
	}
	return mask
}

// tapOffset returns the index into the batch tensor that column 0 of the
// run reads under tap (ky, kx) of channel 0; column i reads i·stride
// further on, channel ch another ch·h·w. For a column whose tap is in the
// padding the index is meaningless (it may even be negative).
func (g *convGeom) tapOffset(r *colRun, ky, kx int) int {
	return r.sample*g.c*g.h*g.w + (r.oy*g.stride-g.padY+ky)*g.w + r.ox*g.stride - g.padX + kx
}
