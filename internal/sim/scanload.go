package sim

import (
	"fmt"
	"time"

	"drainnas/internal/route"
)

// ScanWorkload describes a whole-watershed scan as a capsim arrival
// stream: one model scanned tile by tile under one SLO class, paced the
// way internal/scan's bounded sliding window paces it — the walk's first
// tile arrives alone, the window's Window tiles arrive together one Pace
// later (once it has been answered), then one tile per Pace as
// completions free window slots; Window 1 is one tile per Pace
// throughout. As scan.Run marks its tiles, every tile but the first holds
// its batch group, unless Window is 1. Unlike the random workloads it uses no RNG: a spatial scan
// is maximally correlated load, the exact opposite of Poisson traffic,
// which is what makes it worth simulating against the same batcher and
// router configuration.
type ScanWorkload struct {
	Model  string
	Class  route.SLOClass
	Tiles  int
	Window int
	// Pace is the assumed per-tile completion interval: the first tile's
	// service time, and the interval once the window is full (roughly the
	// backend's batch-1 service time).
	Pace time.Duration
	// C, S are the chip channels and side (metadata in traces, like
	// Client.C/H/W).
	C, S int
}

// Arrivals expands the scan into its deterministic arrival stream.
func (s ScanWorkload) Arrivals() ([]Arrival, error) {
	if s.Tiles <= 0 {
		return nil, fmt.Errorf("sim: scan workload needs tiles > 0, got %d", s.Tiles)
	}
	window := s.Window
	if window <= 0 {
		window = 8
	}
	if s.Pace < 0 {
		return nil, fmt.Errorf("sim: scan pace %v, want >= 0", s.Pace)
	}
	out := make([]Arrival, 0, s.Tiles)
	for i := 0; i < s.Tiles; i++ {
		var at time.Duration
		switch {
		case i == 0:
		case i <= window:
			at = s.Pace
		default:
			at = time.Duration(i-window+1) * s.Pace
		}
		out = append(out, Arrival{At: at, Model: s.Model, Class: s.Class, C: s.C, H: s.S, W: s.S, Hold: i > 0 && window > 1})
	}
	return out, nil
}
