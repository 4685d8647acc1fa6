package scan

import (
	"fmt"

	"drainnas/internal/api"
	"drainnas/internal/geodata"
	"drainnas/internal/tensor"
)

// Source is one scan's chip supply: a synthesized watershed and the
// deterministic chip grid over it. Chip crops are RNG-free and read-only,
// so the runner's window can crop concurrently.
type Source struct {
	Grid     *geodata.Grid
	Channels int
}

// NewSource synthesizes the watershed named by the request and builds its
// grid. The request must already be defaulted and validated; region lookup
// is re-checked here because the watershed is the one piece of state the
// HTTP layer cannot cheaply pre-build.
func NewSource(req api.ScanRequest) (*Source, error) {
	region, ok := geodata.RegionByName(req.Region)
	if !ok {
		return nil, fmt.Errorf("scan: unknown region %q", req.Region)
	}
	tile := geodata.GenerateWatershed(region, req.TileSize, req.Seed)
	grid, err := tile.Grid(req.ChipSize, req.Stride)
	if err != nil {
		return nil, err
	}
	return &Source{Grid: grid, Channels: req.Channels}, nil
}

// ChipTensor crops cell c into a model input tensor.
func (s *Source) ChipTensor(c Cell) *tensor.Tensor {
	return s.Grid.CellTensor(c.X, c.Y, s.Channels)
}

// Truth is the ground-truth crossing-cell count.
func (s *Source) Truth() int { return s.Grid.TruthCrossings() }
