package scan

import (
	"context"
	"math"
	"sync"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/metrics"
	"drainnas/internal/serve"
)

// Config assembles one scan run.
type Config struct {
	// Req is the scan request, already WithDefaults()'d and Validate()'d.
	Req api.ScanRequest
	// Model is the resolved serving key tiles run under.
	Model string
	// Backend serves the tiles.
	Backend Backend
	// Job is the pre-filled job document (ID, Tenant, Model, Region, Order,
	// Seed); Run fills the grid and progress fields.
	Job api.ScanJob
	// Stats receives scan counters; nil discards them.
	Stats *metrics.ScanStats
	// Admit, when set, gates each tile's dispatch (the per-tile tenant
	// quota debit). It may block for backpressure; returning an error
	// aborts the job.
	Admit func(ctx context.Context) error
	// Source overrides the geodata-backed source (tests inject one); nil
	// builds NewSource(Req).
	Source *Source
}

// retryBackoff is the base per-tile retry delay, doubled per attempt.
const retryBackoff = 5 * time.Millisecond

// Run executes one whole-watershed scan: walk the grid in the requested
// order, classify the walk's first tile alone and then keep at most
// Req.Window tiles in flight, retry transient serving rejections per
// tile, and emit every event strictly in walk order through emit (called
// sequentially from one goroutine; each event carries the job document
// as of that event). Run returns the terminal job document:
// done when every tile was classified, canceled when ctx expired mid-scan
// (in-flight tiles drain first), failed on a fatal serving error or an
// unbuildable source.
func Run(ctx context.Context, cfg Config, emit func(api.ScanEvent, api.ScanJob)) api.ScanJob {
	req := cfg.Req
	job := cfg.Job
	job.State = api.ScanStateRunning
	start := time.Now()
	seq := 0
	emitEv := func(ev api.ScanEvent) {
		if emit == nil {
			return
		}
		ev.Seq = seq
		seq++
		emit(ev, job)
	}
	finish := func(state, errMsg string) api.ScanJob {
		job.State = state
		job.Error = errMsg
		job.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		cfg.Stats.JobFinished(state)
		doc := job
		emitEv(api.ScanEvent{Type: api.ScanEventDone, Job: &doc})
		return job
	}

	cfg.Stats.JobStarted()

	src := cfg.Source
	if src == nil {
		var err error
		if src, err = NewSource(req); err != nil {
			return finish(api.ScanStateFailed, err.Error())
		}
	}
	grid := src.Grid
	job.GridW, job.GridH, job.TotalTiles = grid.W, grid.H, grid.Cells()
	job.TruthCrossings = src.Truth()

	cells, err := Walk(req.Order, grid.W, grid.H)
	if err != nil {
		return finish(api.ScanStateFailed, err.Error())
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan tileOut)
	sem := make(chan struct{}, req.Window)
	firstIn := make(chan struct{}) // closed once walk cell 0 has reported
	var admitErr error

	// Dispatcher: acquire a window slot, pass the per-tile admission gate,
	// launch the tile worker. Stops at cancellation; close(results) after
	// every launched worker reported keeps the collector's range honest.
	// The walk's first tile runs alone: a window's worth of tiles landing
	// at once would put it in a full batch that shares the cores with the
	// next one, so the first answer would wait on two batches. The window
	// opens once it has reported, and its burst still fills whole batches.
	go func() {
		var wg sync.WaitGroup
		defer func() {
			wg.Wait()
			close(results)
		}()
		for pos, c := range cells {
			select {
			case sem <- struct{}{}:
			case <-runCtx.Done():
				return
			}
			if cfg.Admit != nil {
				if err := cfg.Admit(runCtx); err != nil {
					if runCtx.Err() == nil {
						admitErr = err
						cancel()
					}
					<-sem
					return
				}
			}
			wg.Add(1)
			go func(pos int, c Cell) {
				defer wg.Done()
				defer func() { <-sem }()
				runTile(runCtx, cfg, src, pos, c, func(o tileOut) {
					results <- o
				})
			}(pos, c)
			if pos == 0 {
				select {
				case <-firstIn:
				case <-runCtx.Done():
				}
				if runCtx.Err() != nil {
					return
				}
			}
		}
	}()

	// Collector: reorder the window's completions into strict walk order.
	// A slow tile parks its successors in the buffer; they emit the moment
	// the gap fills. On a fatal error the run cancels but keeps draining,
	// so every launched worker lands before the terminal event.
	buffer := make(map[int]api.ScanTile, req.Window)
	next := 0
	progressEvery := job.TotalTiles / 16
	if progressEvery < 1 {
		progressEvery = 1
	}
	var fatal error
	for r := range results {
		if r.err != nil && fatal == nil {
			fatal = r.err
			cancel()
		}
		if r.pos == 0 {
			close(firstIn)
		}
		if r.err != nil {
			continue
		}
		buffer[r.pos] = r.tile
		for {
			tile, ok := buffer[next]
			if !ok {
				break
			}
			delete(buffer, next)
			next++
			job.Retries += tile.Retries
			crossing := false
			if tile.Failed {
				job.FailedTiles++
				cfg.Stats.TileFailed(tile.Retries)
			} else {
				job.DoneTiles++
				if tile.Score >= req.Threshold {
					crossing = true
					job.Crossings++
				}
				cfg.Stats.Tile(time.Duration(tile.LatencyMS*float64(time.Millisecond)), tile.Retries, crossing)
			}
			elapsed := time.Since(start)
			job.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
			if next == 1 {
				cfg.Stats.FirstTile(elapsed)
			}
			t := tile
			emitEv(api.ScanEvent{Type: api.ScanEventTile, Tile: &t})
			if (next%progressEvery == 0 && next < job.TotalTiles) || next == job.TotalTiles {
				doc := job
				emitEv(api.ScanEvent{Type: api.ScanEventProgress, Job: &doc})
			}
		}
	}

	switch {
	case fatal != nil:
		return finish(api.ScanStateFailed, fatal.Error())
	case admitErr != nil && ctx.Err() == nil:
		return finish(api.ScanStateFailed, admitErr.Error())
	case ctx.Err() != nil && next < job.TotalTiles:
		return finish(api.ScanStateCanceled, "")
	default:
		return finish(api.ScanStateDone, "")
	}
}

// tileOut is one worker's report to the collector: a completed tile, or a
// fatal error that dooms the job.
type tileOut struct {
	pos  int
	tile api.ScanTile
	err  error
}

// runTile classifies one cell with the per-tile retry loop and reports the
// outcome (or a fatal error) through report. Cancellation mid-tile reports
// nothing: the tile never happened as far as the ordered stream goes.
func runTile(ctx context.Context, cfg Config, src *Source, pos int, c Cell, report func(tileOut)) {
	if pos > 0 && cfg.Req.Window > 1 {
		// Walk cell 0 runs alone. A later tile rides with the window's burst
		// or its refills, so it tells the batcher to wait for company; a
		// window of one sends nothing until the tile returns.
		ctx = serve.ExpectMore(ctx)
	}
	input := src.ChipTensor(c)
	t0 := time.Now()
	var res Result
	var err error
	retries := 0
	for ; ; retries++ {
		res, err = cfg.Backend.Classify(ctx, cfg.Model, input)
		if err == nil || retries >= cfg.Req.MaxRetries || !retryable(err) {
			break
		}
		select {
		case <-time.After(retryBackoff << retries):
		case <-ctx.Done():
			return
		}
	}
	latencyMS := float64(time.Since(t0)) / float64(time.Millisecond)
	id := src.Grid.ChipID(c.X, c.Y)
	if err != nil {
		if ctx.Err() != nil {
			return // canceled: drain silently
		}
		if fatalErr(err) {
			report(tileOut{pos: pos, err: err})
			return
		}
		report(tileOut{pos: pos, tile: api.ScanTile{
			ID: id, X: c.X, Y: c.Y, Failed: true, Err: err.Error(),
			Retries: retries, LatencyMS: latencyMS,
		}})
		return
	}
	report(tileOut{pos: pos, tile: api.ScanTile{
		ID: id, X: c.X, Y: c.Y,
		Class: res.Class, Score: PositiveScore(res.Logits),
		BatchSize: res.BatchSize, Replica: res.Replica,
		Retries: retries, LatencyMS: latencyMS,
	}})
}

// PositiveScore is the softmax probability of the crossing class (index 1)
// given raw logits; fewer than two logits score zero.
func PositiveScore(logits []float32) float64 {
	if len(logits) < 2 {
		return 0
	}
	max := float64(logits[0])
	for _, l := range logits[1:] {
		if float64(l) > max {
			max = float64(l)
		}
	}
	var sum float64
	for _, l := range logits {
		sum += math.Exp(float64(l) - max)
	}
	return math.Exp(float64(logits[1])-max) / sum
}
