package geodata

import (
	"fmt"

	"drainnas/internal/tensor"
)

// GenerateWatershed synthesizes a size×size watershed tile for whole-region
// scanning, deriving everything from (region, size, seed): the RNG is seeded
// from seed alone and the channel/road counts scale with the raster side so
// a larger watershed carries proportionally more hydrography. Two calls with
// equal arguments produce byte-identical bands and identical crossing lists,
// which is what makes scan heat maps reproducible.
func GenerateWatershed(region Region, size int, seed uint64) *Tile {
	rng := tensor.NewRNG(seed ^ 0xA24BAED4963EE407)
	n := 2 + size/256
	return GenerateTile(region, size, n, n, rng)
}

// Grid is a deterministic chip-window view over a tile: cell (x, y) is the
// chipSize×chipSize crop at offset (x*stride, y*stride). Unlike
// ExtractChips — whose crops are jittered for training diversity — a grid
// crop consumes no randomness and reads shared tile bands only, so any
// number of goroutines can crop any cells in any order and every crop is
// byte-identical to a sequential walk. Tile IDs are derived from grid
// position alone (ID = y*W + x), never from visit order.
type Grid struct {
	Tile     *Tile
	ChipSize int
	Stride   int
	// W×H is the cell grid: every cell's crop lies fully inside the tile.
	W, H int
}

// Grid builds the chip-window view. Stride defaults to chipSize
// (non-overlapping) when <= 0.
func (t *Tile) Grid(chipSize, stride int) (*Grid, error) {
	size := t.Terrain.Size
	if stride <= 0 {
		stride = chipSize
	}
	if chipSize < 1 || chipSize >= size {
		return nil, fmt.Errorf("geodata: chip %d does not fit tile %d", chipSize, size)
	}
	side := 1 + (size-chipSize)/stride
	return &Grid{Tile: t, ChipSize: chipSize, Stride: stride, W: side, H: side}, nil
}

// Cells returns the total cell count.
func (g *Grid) Cells() int { return g.W * g.H }

// ChipID returns the deterministic identifier of cell (x, y).
func (g *Grid) ChipID(x, y int) int { return y*g.W + x }

// CellOrigin returns the tile-space top-left corner of cell (x, y).
func (g *Grid) CellOrigin(x, y int) (x0, y0 int) { return x * g.Stride, y * g.Stride }

// CellTensor crops cell (x, y) straight into a (1, channels, S, S) model
// input; channels must be 5 (DEM+R+G+B+NIR) or 7 (adding NDVI+NDWI),
// matching Corpus.Tensors' band selection. The crop is a pure copy of the
// tile bands — no RNG, no shared mutable state — so concurrent scans over
// one grid see identical bytes.
func (g *Grid) CellTensor(x, y, channels int) *tensor.Tensor {
	if x < 0 || x >= g.W || y < 0 || y >= g.H {
		panic(fmt.Sprintf("geodata: grid cell (%d,%d) outside %dx%d", x, y, g.W, g.H))
	}
	if channels != 5 && channels != 7 {
		panic(fmt.Sprintf("geodata: chip supports 5 or 7 channels, got %d", channels))
	}
	size := g.Tile.Terrain.Size
	chip := g.ChipSize
	x0, y0 := g.CellOrigin(x, y)
	out := tensor.New(1, channels, chip, chip)
	data := out.Data()
	for b := 0; b < channels; b++ {
		src := g.Tile.Bands[b*size*size : (b+1)*size*size]
		dst := data[b*chip*chip : (b+1)*chip*chip]
		for r := 0; r < chip; r++ {
			copy(dst[r*chip:(r+1)*chip], src[(y0+r)*size+x0:(y0+r)*size+x0+chip])
		}
	}
	return out
}

// CellHasCrossing reports whether any stamped crossing falls inside cell
// (x, y)'s window.
func (g *Grid) CellHasCrossing(x, y int) bool {
	x0, y0 := g.CellOrigin(x, y)
	for _, c := range g.Tile.Crossings {
		if c.X >= x0 && c.X < x0+g.ChipSize && c.Y >= y0 && c.Y < y0+g.ChipSize {
			return true
		}
	}
	return false
}

// TruthCrossings counts the cells containing a stamped crossing — the
// exact-count reference a scan's detected count is compared against.
func (g *Grid) TruthCrossings() int {
	n := 0
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			if g.CellHasCrossing(x, y) {
				n++
			}
		}
	}
	return n
}
