package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestScanStatsLifecycle(t *testing.T) {
	s := &ScanStats{}
	s.JobStarted()
	s.JobStarted()
	s.JobStarted()
	s.JobFinished("done")
	s.JobFinished("canceled")
	s.JobFinished("failed")
	s.Tile(2*time.Millisecond, 0, true)
	s.Tile(4*time.Millisecond, 2, false)
	s.TileFailed(3)
	s.FirstTile(40 * time.Millisecond)
	s.FirstTile(80 * time.Millisecond)

	snap := s.Snapshot()
	if snap.JobsStarted != 3 || snap.JobsCompleted != 1 || snap.JobsCanceled != 1 || snap.JobsFailed != 1 {
		t.Fatalf("job counters %+v", snap)
	}
	if snap.Tiles != 2 || snap.Crossings != 1 || snap.TileFailures != 1 {
		t.Fatalf("tile counters %+v", snap)
	}
	if snap.TileRetries != 5 {
		t.Fatalf("retries %d, want 5 (2 classified + 3 failed)", snap.TileRetries)
	}
	if snap.TileLatency.Count != 2 || snap.TileLatency.Max != 4*time.Millisecond {
		t.Fatalf("latency histogram %+v", snap.TileLatency)
	}
	if f := snap.FirstTile; f.Count != 2 || f.Min != 40*time.Millisecond || f.Max != 80*time.Millisecond {
		t.Fatalf("first-tile histogram %+v", f)
	}
}

func TestScanStatsNilSafe(t *testing.T) {
	var s *ScanStats
	s.JobStarted()
	s.JobFinished("done")
	s.Tile(time.Millisecond, 1, true)
	s.TileFailed(1)
	s.FirstTile(time.Millisecond)
	if snap := s.Snapshot(); snap.Tiles != 0 || snap.JobsStarted != 0 || snap.FirstTile.Count != 0 {
		t.Fatalf("nil stats snapshot not empty: %+v", snap)
	}
}

func TestScanStatsConcurrent(t *testing.T) {
	s := &ScanStats{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.JobStarted()
				s.Tile(time.Millisecond, 1, i%2 == 0)
				s.TileFailed(1)
				s.JobFinished("done")
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Tiles != 800 || snap.JobsStarted != 800 || snap.JobsCompleted != 800 {
		t.Fatalf("lost updates: %+v", snap)
	}
	if snap.TileRetries != 1600 || snap.TileFailures != 800 || snap.Crossings != 400 {
		t.Fatalf("tile counters: %+v", snap)
	}
}

func TestScanSnapshotWriteProm(t *testing.T) {
	s := &ScanStats{}
	s.JobStarted()
	s.Tile(3*time.Millisecond, 1, true)
	s.FirstTile(45 * time.Millisecond)
	s.JobFinished("done")

	var buf bytes.Buffer
	e := NewExpositionWriter(&buf)
	e.Write(s.Snapshot())
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"drainnas_scan_jobs_started_total 1",
		"drainnas_scan_jobs_completed_total 1",
		"drainnas_scan_tiles_total 1",
		"drainnas_scan_crossings_total 1",
		"drainnas_scan_tile_latency_seconds",
		"drainnas_scan_first_tile_seconds_count 1",
		"drainnas_scan_first_tile_seconds_sum 0.045",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
