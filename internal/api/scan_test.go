package api

import (
	"bytes"
	"encoding/json"
	"testing"

	"drainnas/internal/geodata"
)

var scanSeeds = []string{
	`{"model":"lean","region":"Nebraska","tile_size":640,"chip_size":100,"seed":1}`,
	`{"model":"lean@int8","region":"Illinois","tile_size":160,"chip_size":32,"stride":16,"channels":7,"seed":7,"order":"hilbert","window":4,"max_retries":0,"threshold":0.25}`,
	`{"model":"m","region":"California","tile_size":4096,"chip_size":8,"stride":1,"seed":18446744073709551615}`,
	`{"model":"m","region":"x","tile_size":32,"chip_size":31,"stride":-3,"window":-1,"max_retries":64,"threshold":1}`,
	`{"model":"m","region":"x","tile_size":4097,"chip_size":8}`,
	`{"model":"m","region":"x","tile_size":64,"chip_size":8,"threshold":-0}`,
	`{"tile_size":1e400}`,
	`[]`,
	``,
}

// FuzzScanRequest drives arbitrary bytes through the scan handler's
// admission path (decode, WithDefaults, Validate): nothing panics, every
// accepted request asks for a watershed and grid the synthesis bounds
// allow, and an accepted request survives a JSON round trip unchanged,
// so a router forwarding it starts the same job.
func FuzzScanRequest(f *testing.F) {
	for _, body := range scanSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ScanRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		req = req.WithDefaults()
		if req.Validate() != nil {
			return
		}
		if req.TileSize < 32 || req.TileSize > 4096 {
			t.Fatalf("accepted tile_size %d", req.TileSize)
		}
		if req.ChipSize < 8 || req.ChipSize >= req.TileSize {
			t.Fatalf("accepted chip_size %d on tile %d", req.ChipSize, req.TileSize)
		}
		if req.Stride < 1 {
			t.Fatalf("accepted stride %d", req.Stride)
		}
		tile := &geodata.Tile{Terrain: &geodata.Terrain{Size: req.TileSize}}
		grid, err := tile.Grid(req.ChipSize, req.Stride)
		if err != nil {
			t.Fatalf("accepted request has no grid: %v", err)
		}
		if grid.Cells() > MaxScanTiles {
			t.Fatalf("accepted a %d-cell grid, max %d", grid.Cells(), MaxScanTiles)
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		var back ScanRequest
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("accepted request does not decode from %s: %v", wire, err)
		}
		if back != req {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", back, req)
		}
	})
}
