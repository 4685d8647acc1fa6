package scan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/metrics"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

// backendFunc adapts a function to the Backend interface for tests.
type backendFunc func(ctx context.Context, model string, input *tensor.Tensor) (Result, error)

func (f backendFunc) Classify(ctx context.Context, model string, input *tensor.Tensor) (Result, error) {
	return f(ctx, model, input)
}

// heuristicBackend scores chips deterministically from their DEM band, so
// repeated runs of the same scan are byte-identical.
func heuristicBackend(delay time.Duration) Backend {
	return backendFunc(func(ctx context.Context, model string, input *tensor.Tensor) (Result, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
		}
		s := HeuristicScore(input)
		class := 0
		if s >= 0.5 {
			class = 1
		}
		return Result{Class: class, Logits: scoreLogits(s), BatchSize: 1, Replica: "test"}, nil
	})
}

func scoreLogits(s float64) []float32 {
	const eps = 1e-6
	return []float32{float32(math.Log(1 - s + eps)), float32(math.Log(s + eps))}
}

func testReq(t *testing.T) api.ScanRequest {
	t.Helper()
	req := api.ScanRequest{
		Model:    "resnet18",
		Region:   "Nebraska",
		TileSize: 64,
		ChipSize: 16,
		Seed:     7,
	}.WithDefaults()
	if err := req.Validate(); err != nil {
		t.Fatalf("test request invalid: %v", err)
	}
	return req
}

func runScan(t *testing.T, ctx context.Context, req api.ScanRequest, be Backend) (api.ScanJob, []api.ScanEvent) {
	t.Helper()
	var events []api.ScanEvent
	job := Run(ctx, Config{Req: req, Model: req.Model, Backend: be, Stats: &metrics.ScanStats{}},
		func(ev api.ScanEvent, _ api.ScanJob) { events = append(events, ev) })
	return job, events
}

func TestWalkRowMajor(t *testing.T) {
	cells, err := Walk(api.ScanOrderRowMajor, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Cell{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}}
	if len(cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c != want[i] {
			t.Fatalf("cell %d = %v, want %v", i, c, want[i])
		}
	}
}

func TestWalkHilbertPermutation(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {5, 3}, {7, 7}, {1, 9}, {16, 2}} {
		w, h := dims[0], dims[1]
		cells, err := Walk(api.ScanOrderHilbert, w, h)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != w*h {
			t.Fatalf("%dx%d: got %d cells, want %d", w, h, len(cells), w*h)
		}
		seen := make(map[Cell]bool, len(cells))
		for _, c := range cells {
			if c.X < 0 || c.X >= w || c.Y < 0 || c.Y >= h {
				t.Fatalf("%dx%d: cell %v out of grid", w, h, c)
			}
			if seen[c] {
				t.Fatalf("%dx%d: cell %v visited twice", w, h, c)
			}
			seen[c] = true
		}
	}
}

func TestWalkHilbertLocality(t *testing.T) {
	// On a full power-of-two square the Hilbert walk moves one grid step at
	// a time — the defining locality property.
	cells, err := Walk(api.ScanOrderHilbert, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cells); i++ {
		dx, dy := cells[i].X-cells[i-1].X, cells[i].Y-cells[i-1].Y
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx+dy != 1 {
			t.Fatalf("step %d: %v -> %v is not a unit move", i, cells[i-1], cells[i])
		}
	}
}

func TestWalkUnknownOrder(t *testing.T) {
	if _, err := Walk("spiral", 4, 4); err == nil {
		t.Fatal("want error for unknown order")
	}
}

func TestRunOrderedEmission(t *testing.T) {
	// Per-call jitter scrambles completion order; the event stream must
	// still be in strict walk order with contiguous seq numbers.
	req := testReq(t)
	req.Window = 6
	var mu sync.Mutex
	call := 0
	be := backendFunc(func(ctx context.Context, model string, input *tensor.Tensor) (Result, error) {
		mu.Lock()
		call++
		n := call
		mu.Unlock()
		time.Sleep(time.Duration(n%5) * time.Millisecond)
		s := HeuristicScore(input)
		return Result{Class: 0, Logits: scoreLogits(s), BatchSize: 1}, nil
	})
	job, events := runScan(t, context.Background(), req, be)
	if job.State != api.ScanStateDone {
		t.Fatalf("state = %s (%s), want done", job.State, job.Error)
	}
	if job.DoneTiles != job.TotalTiles || job.TotalTiles != 16 {
		t.Fatalf("done=%d total=%d, want 16/16", job.DoneTiles, job.TotalTiles)
	}
	wantID := 0
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type == api.ScanEventTile {
			if ev.Tile.ID != wantID {
				t.Fatalf("tile event out of order: got id %d, want %d", ev.Tile.ID, wantID)
			}
			wantID++
		}
	}
	if wantID != 16 {
		t.Fatalf("saw %d tile events, want 16", wantID)
	}
	if events[len(events)-1].Type != api.ScanEventDone {
		t.Fatalf("last event is %s, want done", events[len(events)-1].Type)
	}
}

func TestRunHilbertSameCoverage(t *testing.T) {
	req := testReq(t)
	req.Order = api.ScanOrderHilbert
	job, events := runScan(t, context.Background(), req, heuristicBackend(0))
	if job.State != api.ScanStateDone {
		t.Fatalf("state = %s (%s)", job.State, job.Error)
	}
	seen := make(map[int]bool)
	for _, ev := range events {
		if ev.Type == api.ScanEventTile {
			seen[ev.Tile.ID] = true
		}
	}
	if len(seen) != job.TotalTiles {
		t.Fatalf("covered %d tiles, want %d", len(seen), job.TotalTiles)
	}
}

func TestRunRetries(t *testing.T) {
	req := testReq(t)
	req.Window = 1 // sequential, so the global call counter maps to per-tile attempts
	var mu sync.Mutex
	calls := 0
	be := backendFunc(func(ctx context.Context, model string, input *tensor.Tensor) (Result, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n%3 != 0 { // attempts 1 and 2 of each tile fail, attempt 3 lands
			return Result{}, serve.ErrQueueFull
		}
		return Result{Class: 0, Logits: scoreLogits(HeuristicScore(input)), BatchSize: 1}, nil
	})
	job, _ := runScan(t, context.Background(), req, be)
	if job.State != api.ScanStateDone {
		t.Fatalf("state = %s (%s)", job.State, job.Error)
	}
	if job.FailedTiles != 0 {
		t.Fatalf("failed tiles = %d, want 0", job.FailedTiles)
	}
	if want := 2 * job.TotalTiles; job.Retries != want {
		t.Fatalf("retries = %d, want %d", job.Retries, want)
	}
}

func TestRunExhaustedRetriesMarksTileFailed(t *testing.T) {
	req := testReq(t)
	req.MaxRetries = 1
	be := backendFunc(func(ctx context.Context, model string, input *tensor.Tensor) (Result, error) {
		return Result{}, serve.ErrQueueFull
	})
	job, events := runScan(t, context.Background(), req, be)
	if job.State != api.ScanStateDone {
		t.Fatalf("state = %s (%s), want done (failed tiles don't doom the job)", job.State, job.Error)
	}
	if job.FailedTiles != job.TotalTiles {
		t.Fatalf("failed = %d, want %d", job.FailedTiles, job.TotalTiles)
	}
	for _, ev := range events {
		if ev.Type == api.ScanEventTile && (!ev.Tile.Failed || ev.Tile.Err == "") {
			t.Fatalf("tile %d not marked failed: %+v", ev.Tile.ID, ev.Tile)
		}
	}
}

func TestRunFatalError(t *testing.T) {
	req := testReq(t)
	be := backendFunc(func(ctx context.Context, model string, input *tensor.Tensor) (Result, error) {
		return Result{}, serve.ErrModelNotFound
	})
	job, events := runScan(t, context.Background(), req, be)
	if job.State != api.ScanStateFailed {
		t.Fatalf("state = %s, want failed", job.State)
	}
	if job.Error == "" {
		t.Fatal("failed job has no error message")
	}
	if events[len(events)-1].Type != api.ScanEventDone {
		t.Fatal("terminal event missing after fatal error")
	}
}

func TestRunCancelDrains(t *testing.T) {
	req := testReq(t)
	req.TileSize = 128 // 8x8 = 64 tiles
	req.Window = 4
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tiles := 0
	var events []api.ScanEvent
	job := Run(ctx, Config{Req: req, Model: req.Model, Backend: heuristicBackend(3 * time.Millisecond)},
		func(ev api.ScanEvent, _ api.ScanJob) {
			events = append(events, ev)
			if ev.Type == api.ScanEventTile {
				tiles++
				if tiles == 3 {
					cancel()
				}
			}
		})
	if job.State != api.ScanStateCanceled {
		t.Fatalf("state = %s, want canceled (done=%d/%d)", job.State, job.DoneTiles, job.TotalTiles)
	}
	// The emitted tile stream must be a contiguous walk-order prefix even
	// though the cancellation raced in-flight tiles.
	wantID := 0
	for _, ev := range events {
		if ev.Type == api.ScanEventTile {
			if ev.Tile.ID != wantID {
				t.Fatalf("tile id %d after cancel, want contiguous prefix (next %d)", ev.Tile.ID, wantID)
			}
			wantID++
		}
	}
	if wantID >= job.TotalTiles {
		t.Fatalf("all %d tiles emitted despite cancel", wantID)
	}
	if events[len(events)-1].Type != api.ScanEventDone {
		t.Fatal("canceled run must still emit the terminal event")
	}
}

func TestRunAdmitGateAborts(t *testing.T) {
	req := testReq(t)
	admitted := 0
	gate := func(ctx context.Context) error {
		admitted++
		if admitted > 5 {
			return errors.New("quota revoked")
		}
		return nil
	}
	var events []api.ScanEvent
	j := Run(context.Background(), Config{Req: req, Model: req.Model, Backend: heuristicBackend(time.Millisecond), Admit: gate},
		func(ev api.ScanEvent, _ api.ScanJob) { events = append(events, ev) })
	if j.State != api.ScanStateFailed {
		t.Fatalf("state = %s, want failed on admit error", j.State)
	}
	if j.Error == "" {
		t.Fatal("admit failure must surface in the job error")
	}
}

func TestRunDeterministicHeatMap(t *testing.T) {
	req := testReq(t)
	req.Window = 7 // deliberately concurrent
	render := func() ([]byte, string, api.ScanJob) {
		var hm *HeatMap
		job := Run(context.Background(), Config{Req: req, Model: req.Model, Backend: heuristicBackend(time.Millisecond)},
			func(ev api.ScanEvent, cur api.ScanJob) {
				if hm == nil {
					hm = NewHeatMap(cur.GridW, cur.GridH, req.Threshold)
				}
				if ev.Type == api.ScanEventTile {
					hm.SetTile(*ev.Tile)
				}
			})
		return hm.PGM(), hm.ASCII(), job
	}
	pgm1, ascii1, job1 := render()
	pgm2, ascii2, job2 := render()
	if !bytes.Equal(pgm1, pgm2) {
		t.Fatal("PGM renderings differ across identical runs")
	}
	if ascii1 != ascii2 {
		t.Fatal("ASCII renderings differ across identical runs")
	}
	if job1.Crossings != job2.Crossings || job1.TruthCrossings != job2.TruthCrossings {
		t.Fatalf("counts differ: %d/%d vs %d/%d",
			job1.Crossings, job1.TruthCrossings, job2.Crossings, job2.TruthCrossings)
	}
}

func TestHeatMapRendering(t *testing.T) {
	hm := NewHeatMap(3, 2, 0.5)
	hm.SetTile(api.ScanTile{ID: 0, X: 0, Y: 0, Score: 0.95})
	hm.SetTile(api.ScanTile{ID: 1, X: 1, Y: 0, Score: 0.05})
	hm.SetTile(api.ScanTile{ID: 3, X: 0, Y: 1, Failed: true})
	got := hm.ASCII()
	want := "@ ~\n?~~\n"
	if got != want {
		t.Fatalf("ASCII = %q, want %q", got, want)
	}
	if hm.Crossings() != 1 {
		t.Fatalf("crossings = %d, want 1", hm.Crossings())
	}
	pgm := hm.PGM()
	if !bytes.HasPrefix(pgm, []byte("P5\n3 2\n255\n")) {
		t.Fatalf("bad PGM header: %q", pgm[:12])
	}
	px := pgm[len(pgm)-6:]
	if px[0] != 242 || px[1] != 13 || px[2] != 0 || px[3] != 0 {
		t.Fatalf("unexpected pixels % d", px)
	}
}

func TestPositiveScore(t *testing.T) {
	if s := PositiveScore([]float32{0, 0}); s < 0.49 || s > 0.51 {
		t.Fatalf("even logits score %f, want 0.5", s)
	}
	if s := PositiveScore([]float32{-10, 10}); s < 0.99 {
		t.Fatalf("strong positive scores %f", s)
	}
	if s := PositiveScore([]float32{10}); s != 0 {
		t.Fatalf("single logit scores %f, want 0", s)
	}
}

// rampProbe records, through its classify backendFunc, how many calls are
// in flight and whether any call started while walk cell 0's call was
// still open. Once walk cell 0 has returned, every call blocks until the
// count first reaches want, so a full window is seen on any scheduler.
type rampProbe struct {
	first []float32 // walk cell 0's chip
	want  int
	// onFirst, when set, answers walk cell 0's call instead of the
	// heuristic.
	onFirst func(ctx context.Context) (Result, error)

	mu          sync.Mutex
	calls       int
	inFlight    int
	maxInFlight int
	firstDone   bool
	early       int // calls that started before walk cell 0's returned
	filled      bool
	full        chan struct{}
}

func newRampProbe(t *testing.T, req api.ScanRequest, src *Source) *rampProbe {
	t.Helper()
	cells, err := Walk(req.Order, src.Grid.W, src.Grid.H)
	if err != nil {
		t.Fatal(err)
	}
	return &rampProbe{first: src.ChipTensor(cells[0]).Data(), want: req.Window, full: make(chan struct{})}
}

func (p *rampProbe) classify(ctx context.Context, model string, input *tensor.Tensor) (Result, error) {
	isFirst := slices.Equal(input.Data(), p.first)
	p.mu.Lock()
	p.calls++
	if !isFirst && !p.firstDone {
		p.early++
	}
	p.inFlight++
	p.maxInFlight = max(p.maxInFlight, p.inFlight)
	if p.firstDone && p.inFlight == p.want && !p.filled {
		p.filled = true
		close(p.full)
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.inFlight--
		if isFirst {
			p.firstDone = true
		}
		p.mu.Unlock()
	}()
	if isFirst {
		if p.onFirst != nil {
			return p.onFirst(ctx)
		}
		time.Sleep(2 * time.Millisecond) // long enough for a racing start to overlap
	} else if p.want > 1 {
		select {
		case <-p.full:
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-time.After(10 * time.Second):
			return Result{}, errors.New("window never filled")
		}
	}
	s := HeuristicScore(input)
	return Result{Logits: scoreLogits(s), BatchSize: 1}, nil
}

// TestRunFirstTileAlone: the walk's first tile is classified alone, and
// only after it returned does the window open to Req.Window tiles in
// flight. The stream stays gapless and in walk order, a cancellation or a
// fatal error while tile 0 is held submits nothing else, and Window 1 is
// the plain sequential scan.
func TestRunFirstTileAlone(t *testing.T) {
	setup := func(t *testing.T, window int) (api.ScanRequest, *Source, *rampProbe) {
		req := testReq(t)
		req.Window = window
		src, err := NewSource(req)
		if err != nil {
			t.Fatal(err)
		}
		return req, src, newRampProbe(t, req, src)
	}
	run := func(ctx context.Context, req api.ScanRequest, src *Source, p *rampProbe) (api.ScanJob, []api.ScanEvent, metrics.ScanSnapshot) {
		stats := &metrics.ScanStats{}
		var events []api.ScanEvent
		job := Run(ctx, Config{Req: req, Model: req.Model, Backend: backendFunc(p.classify), Stats: stats, Source: src},
			func(ev api.ScanEvent, _ api.ScanJob) { events = append(events, ev) })
		return job, events, stats.Snapshot()
	}

	for _, window := range []int{4, 1} {
		t.Run(fmt.Sprintf("window %d", window), func(t *testing.T) {
			req, src, p := setup(t, window)
			job, events, snap := run(context.Background(), req, src, p)
			if job.State != api.ScanStateDone || job.DoneTiles != job.TotalTiles {
				t.Fatalf("state %s (%s), %d/%d tiles", job.State, job.Error, job.DoneTiles, job.TotalTiles)
			}
			if p.early != 0 {
				t.Fatalf("%d calls started before walk cell 0's call returned", p.early)
			}
			if p.maxInFlight != window {
				t.Fatalf("max in flight %d, want the window %d", p.maxInFlight, window)
			}
			if p.calls != job.TotalTiles {
				t.Fatalf("%d calls for %d tiles", p.calls, job.TotalTiles)
			}
			wantID := 0
			for i, ev := range events {
				if ev.Seq != i {
					t.Fatalf("event %d has seq %d", i, ev.Seq)
				}
				if ev.Type == api.ScanEventTile {
					if ev.Tile.ID != wantID {
						t.Fatalf("tile event out of order: got id %d, want %d", ev.Tile.ID, wantID)
					}
					wantID++
				}
			}
			if wantID != job.TotalTiles {
				t.Fatalf("%d tile events, want %d", wantID, job.TotalTiles)
			}
			if snap.FirstTile.Count != 1 {
				t.Fatalf("first-tile histogram count %d, want 1 per job", snap.FirstTile.Count)
			}
		})
	}

	t.Run("cancel while tile 0 is held", func(t *testing.T) {
		req, src, p := setup(t, 4)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		p.onFirst = func(ctx context.Context) (Result, error) {
			cancel()
			<-ctx.Done()
			return Result{}, ctx.Err()
		}
		job, events, snap := run(ctx, req, src, p)
		if job.State != api.ScanStateCanceled {
			t.Fatalf("state %s, want canceled", job.State)
		}
		for _, ev := range events {
			if ev.Type == api.ScanEventTile {
				t.Fatalf("tile event %d emitted from a scan canceled at tile 0", ev.Tile.ID)
			}
		}
		if len(events) == 0 || events[len(events)-1].Type != api.ScanEventDone {
			t.Fatal("canceled run must still emit the terminal event")
		}
		if p.calls != 1 || snap.FirstTile.Count != 0 {
			t.Fatalf("%d calls and %d first-tile observations, want 1 and 0", p.calls, snap.FirstTile.Count)
		}
	})

	t.Run("fatal error on tile 0", func(t *testing.T) {
		req, src, p := setup(t, 4)
		p.onFirst = func(context.Context) (Result, error) { return Result{}, serve.ErrModelNotFound }
		job, events, _ := run(context.Background(), req, src, p)
		if job.State != api.ScanStateFailed || job.Error == "" {
			t.Fatalf("state %s (%q), want failed with an error", job.State, job.Error)
		}
		if p.calls != 1 {
			t.Fatalf("%d tiles submitted after a fatal error on tile 0, want none", p.calls-1)
		}
		if len(events) != 1 || events[0].Type != api.ScanEventDone {
			t.Fatalf("events %+v, want only the terminal event", events)
		}
	})
}

// TestRunLaterTilesExpectMore: walk cell 0, which runs alone, reaches the
// backend without serve's ExpectMore mark, so the batcher cuts it at once;
// every later tile carries the mark and waits for its batch to fill. A
// window of one marks nothing: no tile has company on the way.
func TestRunLaterTilesExpectMore(t *testing.T) {
	for _, window := range []int{4, 1} {
		t.Run(fmt.Sprintf("window %d", window), func(t *testing.T) {
			req := testReq(t)
			req.Window = window
			src, err := NewSource(req)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := Walk(req.Order, src.Grid.W, src.Grid.H)
			if err != nil {
				t.Fatal(err)
			}
			first := src.ChipTensor(cells[0]).Data()
			var mu sync.Mutex
			var firstHeld []bool
			laterHeld, later := 0, 0
			be := backendFunc(func(ctx context.Context, _ string, input *tensor.Tensor) (Result, error) {
				held := serve.ExpectsMore(ctx)
				mu.Lock()
				if slices.Equal(input.Data(), first) {
					firstHeld = append(firstHeld, held)
				} else {
					later++
					if held {
						laterHeld++
					}
				}
				mu.Unlock()
				return Result{Logits: scoreLogits(HeuristicScore(input)), BatchSize: 1}, nil
			})
			job, _ := runScan(t, context.Background(), req, be)
			if job.State != api.ScanStateDone || job.DoneTiles != job.TotalTiles {
				t.Fatalf("state %s (%s), %d/%d tiles", job.State, job.Error, job.DoneTiles, job.TotalTiles)
			}
			if fmt.Sprint(firstHeld) != "[false]" {
				t.Fatalf("walk cell 0 reached the backend with marks %v, want one unmarked call", firstHeld)
			}
			want := later
			if window == 1 {
				want = 0
			}
			if later != job.TotalTiles-1 || laterHeld != want {
				t.Fatalf("%d of %d later tiles marked, want %d", laterHeld, later, want)
			}
		})
	}
}
