package metrics

import (
	"sync"
	"time"
)

// ScanStats aggregates whole-watershed scan counters: job lifecycle
// outcomes and per-tile progress (tiles classified, retries, failures,
// detected crossings) with a streaming tile-latency histogram. All methods
// are safe for concurrent use and no-ops on a nil receiver, matching the
// other stats sinks.
type ScanStats struct {
	mu sync.Mutex
	// c is the snapshot's counters; Snapshot fills in TileLatency.
	c           ScanSnapshot
	tileLatency Histogram
}

// locked runs f under the lock; a nil sink runs nothing.
func (s *ScanStats) locked(f func()) {
	if s == nil {
		return
	}
	s.mu.Lock()
	f()
	s.mu.Unlock()
}

// JobStarted counts one scan job entering the running state.
func (s *ScanStats) JobStarted() {
	s.locked(func() { s.c.JobsStarted++ })
}

// JobFinished counts a job leaving the running state in the given terminal
// state ("done", "canceled" or "failed").
func (s *ScanStats) JobFinished(state string) {
	s.locked(func() {
		switch state {
		case "canceled":
			s.c.JobsCanceled++
		case "failed":
			s.c.JobsFailed++
		default:
			s.c.JobsCompleted++
		}
	})
}

// Tile records one classified tile: its end-to-end latency, how many
// retries it took, and whether it scored as a crossing.
func (s *ScanStats) Tile(latency time.Duration, retries int, crossing bool) {
	s.locked(func() {
		s.c.Tiles++
		s.c.TileRetries += uint64(retries)
		if crossing {
			s.c.Crossings++
		}
		s.tileLatency.Observe(latency)
	})
}

// TileFailed records a tile that exhausted its retries.
func (s *ScanStats) TileFailed(retries int) {
	s.locked(func() {
		s.c.TileFailures++
		s.c.TileRetries += uint64(retries)
	})
}

// ScanSnapshot is a point-in-time copy of the scan counters.
type ScanSnapshot struct {
	JobsStarted   uint64 `json:"jobs_started" prom:"drainnas_scan_jobs_started_total" help:"Scan jobs admitted."`
	JobsCompleted uint64 `json:"jobs_completed" prom:"drainnas_scan_jobs_completed_total" help:"Scan jobs that finished every tile."`
	JobsCanceled  uint64 `json:"jobs_canceled" prom:"drainnas_scan_jobs_canceled_total" help:"Scan jobs canceled mid-scan."`
	JobsFailed    uint64 `json:"jobs_failed" prom:"drainnas_scan_jobs_failed_total" help:"Scan jobs that aborted on error."`

	Tiles        uint64 `json:"tiles" prom:"drainnas_scan_tiles_total" help:"Tiles classified across all scans."`
	TileRetries  uint64 `json:"tile_retries" prom:"drainnas_scan_tile_retries_total" help:"Per-tile retries of retryable serving errors."`
	TileFailures uint64 `json:"tile_failures" prom:"drainnas_scan_tile_failures_total" help:"Tiles that exhausted their retries."`
	Crossings    uint64 `json:"crossings" prom:"drainnas_scan_crossings_total" help:"Tiles scored as drainage crossings."`

	TileLatency HistogramSnapshot `json:"tile_latency" prom:"drainnas_scan_tile_latency_seconds" help:"Per-tile end-to-end latency."`
}

// Snapshot returns a consistent copy of the counters.
func (s *ScanStats) Snapshot() (snap ScanSnapshot) {
	s.locked(func() {
		snap = s.c
		snap.TileLatency = s.tileLatency.Snapshot()
	})
	return snap
}
