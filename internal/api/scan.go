package api

import "fmt"

// Tile-scan orders. Row-major is the obvious raster walk; the Hilbert
// option preserves 2-D spatial locality in the 1-D request stream, so
// consecutive requests hit neighboring terrain (and the serving tier's
// batch formation and cache policy see the correlated load a real
// watershed scan produces).
const (
	ScanOrderRowMajor = "row-major"
	ScanOrderHilbert  = "hilbert"
)

// Scan-job lifecycle states, as reported by GET /v1/scan/{id}.
const (
	ScanStateRunning  = "running"
	ScanStateDone     = "done"
	ScanStateCanceled = "canceled"
	ScanStateFailed   = "failed"
)

// ScanRequest is the POST /v1/scan body: classify every chip-sized window
// of a synthesized watershed through the serving tier and reassemble the
// ordered drainage-crossing heat map. The watershed is generated
// deterministically from (region, tile_size, seed), so the same request
// against the same models yields a byte-identical heat map.
type ScanRequest struct {
	// Model and Precision select the serving key, exactly as for predict.
	Model     string `json:"model"`
	Precision string `json:"precision,omitempty"`
	// SLO is honored by the router tier ("batch" is the natural class for
	// a bulk scan); a bare replica ignores it.
	SLO string `json:"slo,omitempty"`
	// Region is one of the paper's study regions ("Nebraska", "Illinois",
	// "North Dakota", "California").
	Region string `json:"region"`
	// TileSize is the watershed raster side in cells; ChipSize the model
	// input side. Stride defaults to ChipSize (non-overlapping windows).
	TileSize int `json:"tile_size"`
	ChipSize int `json:"chip_size"`
	Stride   int `json:"stride,omitempty"`
	// Channels is the model input depth (5 or 7, default 5).
	Channels int `json:"channels,omitempty"`
	// Seed makes the synthesized watershed (and therefore the heat map)
	// reproducible.
	Seed uint64 `json:"seed"`
	// Order is the tile walk: "row-major" (default) or "hilbert".
	Order string `json:"order,omitempty"`
	// Window bounds in-flight tiles (the sliding window; default 8). The
	// walk's first tile runs alone; once it has been answered, up to
	// Window tiles are in flight.
	Window int `json:"window,omitempty"`
	// MaxRetries bounds per-tile retries of retryable serving errors
	// (queue_full, throttled, transport); default 3.
	MaxRetries int `json:"max_retries,omitempty"`
	// Threshold is the positive-score cutoff for the crossing count
	// (default 0.5).
	Threshold float64 `json:"threshold,omitempty"`
}

// MaxScanTiles bounds one job's grid: events are retained in memory for
// replay-then-follow streaming, so an unbounded grid would be an
// unbounded allocation an unauthenticated client controls.
const MaxScanTiles = 16384

// WithDefaults fills the optional knobs.
func (r ScanRequest) WithDefaults() ScanRequest {
	if r.Stride <= 0 {
		r.Stride = r.ChipSize
	}
	if r.Channels == 0 {
		r.Channels = 5
	}
	if r.Order == "" {
		r.Order = ScanOrderRowMajor
	}
	if r.Window <= 0 {
		r.Window = 8
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = 3
	}
	if r.Threshold == 0 {
		r.Threshold = 0.5
	}
	return r
}

// Validate rejects malformed scan requests with client-facing messages
// (they land in bad_input envelopes). Call on the WithDefaults form.
func (r ScanRequest) Validate() error {
	if r.Model == "" {
		return fmt.Errorf("model is required")
	}
	if r.Region == "" {
		return fmt.Errorf("region is required")
	}
	if r.TileSize < 32 {
		return fmt.Errorf("tile_size %d too small (min 32)", r.TileSize)
	}
	if r.TileSize > 4096 {
		return fmt.Errorf("tile_size %d too large (max 4096)", r.TileSize)
	}
	if r.ChipSize < 8 || r.ChipSize >= r.TileSize {
		return fmt.Errorf("chip_size %d must be in [8, tile_size)", r.ChipSize)
	}
	if r.Stride < 1 {
		return fmt.Errorf("stride %d must be >= 1", r.Stride)
	}
	if r.Channels != 5 && r.Channels != 7 {
		return fmt.Errorf("channels %d must be 5 or 7", r.Channels)
	}
	if r.Order != ScanOrderRowMajor && r.Order != ScanOrderHilbert {
		return fmt.Errorf("order %q must be %q or %q", r.Order, ScanOrderRowMajor, ScanOrderHilbert)
	}
	if r.Window < 1 || r.Window > 1024 {
		return fmt.Errorf("window %d must be in [1, 1024]", r.Window)
	}
	if r.MaxRetries < 0 || r.MaxRetries > 64 {
		return fmt.Errorf("max_retries %d must be in [0, 64]", r.MaxRetries)
	}
	if r.Threshold < 0 || r.Threshold > 1 {
		return fmt.Errorf("threshold %g must be in [0, 1]", r.Threshold)
	}
	side := 1 + (r.TileSize-r.ChipSize)/r.Stride
	if tiles := side * side; tiles > MaxScanTiles {
		return fmt.Errorf("grid is %d tiles, max %d (raise stride or shrink tile_size)", tiles, MaxScanTiles)
	}
	return nil
}

// ScanJob is a job's status document: the POST /v1/scan response and the
// GET /v1/scan/{id} body, also embedded in progress/done events.
type ScanJob struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// The resolved request (model is the serving key the tiles run under).
	Model  string `json:"model"`
	Region string `json:"region"`
	Order  string `json:"order"`
	Seed   uint64 `json:"seed"`
	// GridW×GridH is the tile grid; TotalTiles its size.
	GridW      int `json:"grid_w"`
	GridH      int `json:"grid_h"`
	TotalTiles int `json:"total_tiles"`
	// Progress counters; Crossings is the exact count of tiles whose
	// positive score cleared the threshold so far.
	DoneTiles   int `json:"done_tiles"`
	FailedTiles int `json:"failed_tiles"`
	Retries     int `json:"retries"`
	Crossings   int `json:"crossings"`
	// TruthCrossings is the ground-truth count of grid tiles containing a
	// stamped crossing — the scan's exact-count reference.
	TruthCrossings int     `json:"truth_crossings"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	// Tenant attributes the job when the edge tier admitted it.
	Tenant string `json:"tenant,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Scan event types carried on GET /v1/scan/{id}/events (one NDJSON object
// per line).
const (
	ScanEventTile     = "tile"
	ScanEventProgress = "progress"
	ScanEventDone     = "done"
)

// ScanTile is one classified window, emitted strictly in scan order.
type ScanTile struct {
	// ID is the deterministic tile identifier, derived from grid position
	// alone (y*grid_w + x) — stable across orders, runs and concurrency.
	ID int `json:"id"`
	X  int `json:"x"`
	Y  int `json:"y"`
	// Class is the argmax class; Score the softmax probability of the
	// crossing class.
	Class     int     `json:"class"`
	Score     float64 `json:"score"`
	BatchSize int     `json:"batch_size,omitempty"`
	Replica   string  `json:"replica,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
	Retries   int     `json:"retries,omitempty"`
	// Failed marks a tile that exhausted its retries; Class/Score are
	// meaningless and the heat map records it as unknown.
	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"error,omitempty"`
}

// ScanEvent is one line of the NDJSON event stream. Seq increases by one
// per line from 0, so a client can resume with ?from=<seq>.
type ScanEvent struct {
	Type string    `json:"type"`
	Seq  int       `json:"seq"`
	Tile *ScanTile `json:"tile,omitempty"`
	Job  *ScanJob  `json:"job,omitempty"`
}
