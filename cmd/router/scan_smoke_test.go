package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/fronttest"
	"drainnas/internal/scan"
)

// streamScan starts req and consumes its full event stream, returning the
// final job document, the heat map assembled from the streamed tiles, and
// the tile IDs in arrival order.
func streamScan(t *testing.T, c *api.Client, req api.ScanRequest) (api.ScanJob, *scan.HeatMap, []int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	job, err := c.StartScan(ctx, req)
	if err != nil {
		t.Fatalf("StartScan: %v", err)
	}
	side := 1 + (req.TileSize-req.ChipSize)/req.Stride
	hm := scan.NewHeatMap(side, side, req.Threshold)
	stream, err := c.ScanEvents(ctx, job.ID, 0)
	if err != nil {
		t.Fatalf("ScanEvents: %v", err)
	}
	defer stream.Close()
	final := job
	var order []int
	wantSeq := 0
	for {
		ev, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if ev.Seq != wantSeq {
			t.Fatalf("event seq %d, want %d (stream must be gapless)", ev.Seq, wantSeq)
		}
		wantSeq++
		switch ev.Type {
		case api.ScanEventTile:
			hm.SetTile(*ev.Tile)
			order = append(order, ev.Tile.ID)
		case api.ScanEventProgress, api.ScanEventDone:
			final = *ev.Job
		}
	}
	return final, hm, order
}

// TestRouterScanSmoke is the CI gate (make scan-smoke): a race-built servd
// replica behind a race-built router, a small synthetic watershed scanned
// end to end through the job API. It requires ordered completion (tile
// events arrive in exact walk order, gapless), nonzero detected crossings,
// a byte-identical heat map across two runs, a clean drain after a
// mid-scan cancel, and a clean SIGTERM exit for both binaries.
func TestRouterScanSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	fronttest.WriteModels(t, dir)
	servd := fronttest.StartProc(t, fronttest.Build(t, dir, "servd", true), "-models", dir)
	router := fronttest.StartProc(t, fronttest.Build(t, dir, "router", true),
		"-replicas", "0", "-backends", servd.URL, "-models", dir)

	c := api.NewClient(router.URL, api.ClientOptions{Retries: 2})
	req := api.ScanRequest{
		Model: "wet", SLO: "batch", Region: "Nebraska",
		TileSize: 64, ChipSize: 16, Seed: 7,
		Order: api.ScanOrderHilbert, Threshold: 0.05,
	}.WithDefaults()

	// --- Run 1: ordered completion and nonzero crossings. ---
	job1, hm1, order1 := streamScan(t, c, req)
	if job1.State != api.ScanStateDone {
		t.Fatalf("scan state %q, want done (error %q)", job1.State, job1.Error)
	}
	if job1.DoneTiles != job1.TotalTiles || job1.FailedTiles != 0 {
		t.Fatalf("completion %d/%d done, %d failed", job1.DoneTiles, job1.TotalTiles, job1.FailedTiles)
	}
	cells, err := scan.Walk(req.Order, job1.GridW, job1.GridH)
	if err != nil {
		t.Fatal(err)
	}
	if len(order1) != len(cells) {
		t.Fatalf("streamed %d tile events, want %d", len(order1), len(cells))
	}
	for i, cell := range cells {
		if want := cell.Y*job1.GridW + cell.X; order1[i] != want {
			t.Fatalf("tile event %d is tile %d, walk order says %d — results must stream in walk order", i, order1[i], want)
		}
	}
	if job1.Crossings == 0 {
		t.Fatalf("no crossings detected at threshold %g:\n%s", req.Threshold, hm1.ASCII())
	}

	// --- Run 2: the heat map must be byte-identical. ---
	job2, hm2, _ := streamScan(t, c, req)
	if job2.State != api.ScanStateDone {
		t.Fatalf("second scan state %q, want done", job2.State)
	}
	if hm1.ASCII() != hm2.ASCII() {
		t.Fatalf("ASCII heat maps differ across identical runs:\n--- run 1\n%s--- run 2\n%s", hm1.ASCII(), hm2.ASCII())
	}
	if !bytes.Equal(hm1.PGM(), hm2.PGM()) {
		t.Fatal("PGM heat maps differ across identical runs")
	}

	// --- Cancel mid-scan: a contiguous walk-order prefix must drain,
	// ending with the canceled terminal event. ---
	big := req
	big.TileSize = 256 // 16x16 = 256 tiles; plenty of runway to cancel into
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	job, err := c.StartScan(ctx, big)
	if err != nil {
		t.Fatalf("StartScan (big): %v", err)
	}
	stream, err := c.ScanEvents(ctx, job.ID, 0)
	if err != nil {
		t.Fatalf("ScanEvents (big): %v", err)
	}
	defer stream.Close()
	// The immediate StartScan snapshot may predate the run goroutine
	// setting grid dims; derive them from the request.
	side := 1 + (big.TileSize-big.ChipSize)/big.Stride
	bigCells, err := scan.Walk(big.Order, side, side)
	if err != nil {
		t.Fatal(err)
	}
	var (
		tiles    int
		terminal *api.ScanJob
	)
	for {
		ev, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("stream (big): %v", err)
		}
		switch ev.Type {
		case api.ScanEventTile:
			if want := bigCells[tiles].Y*side + bigCells[tiles].X; ev.Tile.ID != want {
				t.Fatalf("canceled scan tile %d is %d, walk order says %d — drain must stay a contiguous prefix",
					tiles, ev.Tile.ID, want)
			}
			tiles++
			if tiles == 5 {
				if _, err := c.CancelScan(ctx, job.ID); err != nil {
					t.Fatalf("CancelScan: %v", err)
				}
			}
		case api.ScanEventDone:
			terminal = ev.Job
		}
	}
	if terminal == nil {
		t.Fatal("canceled scan's stream ended without a terminal event")
	}
	if terminal.State != api.ScanStateCanceled {
		t.Fatalf("terminal state %q, want canceled", terminal.State)
	}
	if tiles >= terminal.TotalTiles {
		t.Fatalf("cancel landed after all %d tiles completed; not a mid-scan cancel", terminal.TotalTiles)
	}

	// --- Both binaries drain cleanly on SIGTERM. ---
	router.Term(t)
	servd.Term(t)
}
