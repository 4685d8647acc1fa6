package geodata

import (
	"fmt"
	"math"
	"sort"

	"drainnas/internal/parallel"
)

// Terrain is a square digital elevation model with helper fields produced
// during synthesis: masks marking carved channels, road embankments and
// crossing structures. Flow accumulation is derived on demand
// (FlowAccumulation), since nothing rendered from the terrain reads it.
type Terrain struct {
	Size int
	// Elev holds elevations in meters, row-major.
	Elev []float64
	// ChannelMask / RoadMask / CrossingMask are in [0, 1] membership weights.
	ChannelMask  []float64
	RoadMask     []float64
	CrossingMask []float64
}

// NewTerrain allocates a terrain of the given size.
func NewTerrain(size int) *Terrain {
	if size <= 0 {
		panic(fmt.Sprintf("geodata: invalid terrain size %d", size))
	}
	n := size * size
	return &Terrain{
		Size:         size,
		Elev:         make([]float64, n),
		ChannelMask:  make([]float64, n),
		RoadMask:     make([]float64, n),
		CrossingMask: make([]float64, n),
	}
}

// d8Offsets enumerates the eight neighbors with their distances.
var d8Offsets = [8]struct {
	dx, dy int
	dist   float64
}{
	{1, 0, 1}, {-1, 0, 1}, {0, 1, 1}, {0, -1, 1},
	{1, 1, math.Sqrt2}, {1, -1, math.Sqrt2}, {-1, 1, math.Sqrt2}, {-1, -1, math.Sqrt2},
}

// FlowAccumulation returns the D8 flow accumulation of the DEM, row-major:
// each cell drains to its steepest-descent neighbor, and accumulation counts
// the number of cells (including itself) draining through each cell. Cells
// are processed in descending elevation order, which makes the single pass
// exact on a DAG.
func (t *Terrain) FlowAccumulation() []float64 {
	size := t.Size
	n := size * size
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return t.Elev[order[a]] > t.Elev[order[b]] })

	acc := make([]float64, n)
	for i := range acc {
		acc[i] = 1
	}
	for _, idx := range order {
		x, y := idx%size, idx/size
		bestSlope := 0.0
		best := -1
		for _, o := range d8Offsets {
			nx, ny := x+o.dx, y+o.dy
			if nx < 0 || nx >= size || ny < 0 || ny >= size {
				continue
			}
			nIdx := ny*size + nx
			slope := (t.Elev[idx] - t.Elev[nIdx]) / o.dist
			if slope > bestSlope {
				bestSlope = slope
				best = nIdx
			}
		}
		if best >= 0 {
			acc[best] += acc[idx]
		}
	}
	return acc
}

// polyline is a sequence of continuous points tracing a channel or road.
type polyline []struct{ X, Y float64 }

// distanceToSegment returns the Euclidean distance from p to segment ab.
func distanceToSegment(px, py, ax, ay, bx, by float64) float64 {
	dx, dy := bx-ax, by-ay
	l2 := dx*dx + dy*dy
	if l2 == 0 {
		return math.Hypot(px-ax, py-ay)
	}
	tp := ((px-ax)*dx + (py-ay)*dy) / l2
	tp = clamp01(tp)
	cx, cy := ax+tp*dx, ay+tp*dy
	return math.Hypot(px-cx, py-cy)
}

// gaussianReach is how many σ from its axis a Gaussian profile keeps a
// weight of at least 1e-4, the cut-off below which CarveChannel and
// RaiseRoad leave a cell alone: exp(-r²/2) = 1e-4 at r = √(2 ln 10⁴).
var gaussianReach = math.Sqrt(2 * math.Log(1e4))

// channelReach and roadReach bound the distance at which a channel or road
// profile still weighs at least 1e-4, plus one cell of slack for rounding.
func channelReach(width float64) float64 { return width*gaussianReach + 1 }

func roadReach(crownWidth, shoulderWidth float64) float64 {
	return crownWidth + shoulderWidth*gaussianReach + 1
}

// roadWeight is the embankment profile at distance d from the road axis:
// 1 on the crown, Gaussian shoulders beyond.
func roadWeight(d, crownWidth, shoulderWidth float64) float64 {
	if d <= crownWidth {
		return 1
	}
	return gaussian(d-crownWidth, shoulderWidth)
}

// reachSegment is one polyline segment with the cell window it can act
// on: its bounding box grown by reach, clipped to the raster.
type reachSegment struct {
	ax, ay, bx, by float64
	x0, x1, y0, y1 int
}

// reachSegments returns the line's segments with their windows, in line
// order, and the raster rows [ylo, yhi) that some window covers.
func reachSegments(line polyline, reach float64, size int) (segs []reachSegment, ylo, yhi int) {
	ylo, yhi = size, 0
	for s := 0; s+1 < len(line); s++ {
		ax, ay, bx, by := line[s].X, line[s].Y, line[s+1].X, line[s+1].Y
		seg := reachSegment{
			ax: ax, ay: ay, bx: bx, by: by,
			x0: max(0, int(math.Floor(min(ax, bx)-reach))),
			x1: min(size-1, int(math.Ceil(max(ax, bx)+reach))),
			y0: max(0, int(math.Floor(min(ay, by)-reach))),
			y1: min(size-1, int(math.Ceil(max(ay, by)+reach))),
		}
		segs = append(segs, seg)
		if seg.x0 <= seg.x1 && seg.y0 <= seg.y1 {
			ylo, yhi = min(ylo, seg.y0), max(yhi, seg.y1+1)
		}
	}
	return segs, ylo, yhi
}

// distanceRow sets row[x] to cell (x, y)'s distance to the nearest segment
// whose window holds the cell, +Inf where no window does, over the span
// [lo, hi) of x that the windows covering row y reach; row outside the
// span is left as it was, and the span is empty when no window covers y.
// A cell within reach of the line is within reach of its nearest segment,
// so it gets the same minimum an exhaustive sweep over every segment would
// give it.
func distanceRow(row []float64, y int, segs []reachSegment) (lo, hi int) {
	lo, hi = len(row), 0
	for _, s := range segs {
		if s.y0 <= y && y <= s.y1 && s.x0 <= s.x1 {
			lo, hi = min(lo, s.x0), max(hi, s.x1+1)
		}
	}
	if lo >= hi {
		return 0, 0
	}
	inf := math.Inf(1)
	for x := lo; x < hi; x++ {
		row[x] = inf
	}
	fy := float64(y)
	for _, s := range segs {
		if y < s.y0 || y > s.y1 {
			continue
		}
		for x := s.x0; x <= s.x1; x++ {
			if d := distanceToSegment(float64(x), fy, s.ax, s.ay, s.bx, s.by); d < row[x] {
				row[x] = d
			}
		}
	}
	return lo, hi
}

// alongLine calls apply(i, d) for every cell i closer than reach to the
// line, d being its distance to the nearest segment; a profile weighs
// below its 1e-4 cut-off at reach and beyond, so no other cell changes.
// The rows the windows cover are measured a row at a time into a row
// buffer, in bands on all cores, so apply must touch cell i only; each
// cell sees one call, with the distance a serial sweep gives.
func (t *Terrain) alongLine(line polyline, reach float64, apply func(i int, d float64)) {
	size := t.Size
	segs, ylo, yhi := reachSegments(line, reach, size)
	parallel.ForChunked(yhi-ylo, 0, func(r0, r1 int) {
		dist := make([]float64, size)
		for y := ylo + r0; y < ylo+r1; y++ {
			lo, hi := distanceRow(dist, y, segs)
			for x, d := range dist[lo:hi] {
				if d < reach { // +Inf outside every window
					apply(y*size+lo+x, d)
				}
			}
		}
	})
}

// CarveChannel lowers the DEM along the polyline with a Gaussian
// cross-section of the given width (σ, cells) and depth (meters), and adds
// the membership weight to ChannelMask.
func (t *Terrain) CarveChannel(line polyline, width, depth float64) {
	t.alongLine(line, channelReach(width), func(i int, d float64) {
		w := gaussian(d, width)
		if w < 1e-4 {
			return
		}
		t.Elev[i] -= depth * w
		t.ChannelMask[i] = math.Max(t.ChannelMask[i], w)
	})
}

// RaiseRoad lifts the DEM along the polyline to form an embankment with a
// flat crown: full height within crownWidth, Gaussian shoulders beyond.
func (t *Terrain) RaiseRoad(line polyline, crownWidth, shoulderWidth, height float64) {
	t.alongLine(line, roadReach(crownWidth, shoulderWidth), func(i int, d float64) {
		w := roadWeight(d, crownWidth, shoulderWidth)
		if w < 1e-4 {
			return
		}
		t.Elev[i] += height * w
		t.RoadMask[i] = math.Max(t.RoadMask[i], w)
	})
}

// StampCrossing records a culvert-style drainage crossing at (cx, cy): the
// embankment locally sags and the channel depression persists through it,
// producing the DEM signature the classifier must learn. radius is in cells.
func (t *Terrain) StampCrossing(cx, cy, radius, sag float64) {
	size := t.Size
	x0 := int(math.Max(0, cx-3*radius))
	x1 := int(math.Min(float64(size-1), cx+3*radius))
	y0 := int(math.Max(0, cy-3*radius))
	y1 := int(math.Min(float64(size-1), cy+3*radius))
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			d := math.Hypot(float64(x)-cx, float64(y)-cy)
			w := gaussian(d, radius)
			if w < 1e-4 {
				continue
			}
			i := y*size + x
			t.Elev[i] -= sag * w
			t.CrossingMask[i] = math.Max(t.CrossingMask[i], w)
		}
	}
}

// ElevRange returns the minimum and maximum elevation.
func (t *Terrain) ElevRange() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, e := range t.Elev {
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	return lo, hi
}
