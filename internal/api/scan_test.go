package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
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

// encodeEvents writes events the way the scan handler's event stream does:
// one json.Encoder line per event.
func encodeEvents(t testing.TB, events []ScanEvent) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// readEvents calls Next until it fails, returning the events read before
// and the error it ended in. Every event consumes at least one byte, so a
// stream that has not ended after len(body)+1 calls never will.
func readEvents(t *testing.T, body []byte) ([]ScanEvent, error) {
	s := newScanEventStream(io.NopCloser(bytes.NewReader(body)))
	var events []ScanEvent
	for calls := 0; calls <= len(body)+1; calls++ {
		ev, err := s.Next()
		if err != nil {
			return events, err
		}
		events = append(events, ev)
	}
	t.Fatalf("Next still returning events after %d calls on %d bytes", len(body)+2, len(body))
	return nil, nil
}

// FuzzScanEventStream feeds arbitrary bytes to the client's NDJSON event
// reader: Next never panics and ends in io.EOF or an error, and the events
// it read, written back by json.Encoder as the scan handler writes them,
// read back unchanged and end in io.EOF.
func FuzzScanEventStream(f *testing.F) {
	stream := encodeEvents(f, []ScanEvent{
		{Type: ScanEventTile, Seq: 0, Tile: &ScanTile{ID: 3, X: 3, Class: 1, Score: 0.93, BatchSize: 8, Replica: "r1", LatencyMS: 12.5}},
		{Type: ScanEventTile, Seq: 1, Tile: &ScanTile{ID: 4, X: 4, Retries: 3, Failed: true, Err: "no_replicas <&>"}},
		{Type: ScanEventProgress, Seq: 2, Job: &ScanJob{ID: "scan-1", State: ScanStateRunning, GridW: 6, GridH: 6, TotalTiles: 36, DoneTiles: 2}},
		{Type: ScanEventDone, Seq: 3, Job: &ScanJob{ID: "scan-1", State: ScanStateDone, Seed: 1<<64 - 1, ElapsedMS: 1e-7, Tenant: "t"}},
	})
	for _, seed := range [][]byte{
		stream,
		stream[:len(stream)/2],
		[]byte(`{"type":"tile","seq":1.5}`),
		[]byte(`{"type":"tile","tile":null,"job":{}} 7 {"seq":2}`),
		[]byte(`{"TYPE":"done","Seq":-0,"tile":{"score":-0,"error":"\ud800"}}`),
		[]byte("\n\n  "),
		[]byte(`[`),
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		events, err := readEvents(t, body)
		if err == nil {
			t.Fatal("stream ended without an error or io.EOF")
		}
		again, err := readEvents(t, encodeEvents(t, events))
		if !errors.Is(err, io.EOF) {
			t.Fatalf("re-encoded events end in %v, want io.EOF", err)
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("re-encoded events read back as %+v, want %+v", again, events)
		}
	})
}
