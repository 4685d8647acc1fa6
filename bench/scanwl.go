package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/scan"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

// The scan job. The issue sized it at tile_size 2048 (55×55 tiles, ~40 s a
// job); the driver's time cap leaves a phase of seconds, so the watershed
// is 640 cells a side — 16×16 = 256 tiles, a few seconds a job — with the
// chip, stride, window and order unchanged, so the batcher sees the same
// kind of load for less long.
const (
	scanTileSize = 640
	scanStride   = 36
	scanWindow   = 16
	scanSide     = 1 + (scanTileSize-chipSide)/scanStride
	scanTiles    = scanSide * scanSide
	// scanRefTiles is how many tiles of the first job are held to a
	// reference forward computed at set-up.
	scanRefTiles = 16
)

func scanRequest(seed uint64) api.ScanRequest {
	return api.ScanRequest{
		Model: "front32", Region: "Nebraska",
		TileSize: scanTileSize, ChipSize: chipSide, Stride: scanStride,
		Seed: seed, Order: api.ScanOrderHilbert, Window: scanWindow,
	}.WithDefaults()
}

type scanWorkload struct{}

func (scanWorkload) name() string { return "scan_watershed" }

// refTile is what the reference forward says one tile must come out as.
type refTile struct {
	class int
	score float64
}

type scanRun struct {
	e        *env
	dir      string
	modelDir string
	servd    *child
	client   *api.Client
	walk     []scan.Cell
	refs     map[int]refTile // tile ID → reference, first job's seed only
}

func (scanWorkload) setup(e *env) (instance, error) {
	dir, err := e.workDir()
	if err != nil {
		return nil, err
	}
	r := &scanRun{e: e, dir: dir, modelDir: filepath.Join(dir, "models")}
	if err := r.boot(); err != nil {
		return nil, errors.Join(err, r.close())
	}
	return r, nil
}

func (r *scanRun) boot() error {
	if err := os.Mkdir(r.modelDir, 0o755); err != nil {
		return err
	}
	if err := exportModel(r.modelDir, "front32", front32); err != nil {
		return err
	}
	var err error
	if r.walk, err = scan.Walk(api.ScanOrderHilbert, scanSide, scanSide); err != nil {
		return err
	}
	if err := r.reference(); err != nil {
		return err
	}
	if r.servd, err = startChild("servd", filepath.Join(r.e.binDir, "servd"), "-models", r.modelDir); err != nil {
		return err
	}
	r.client = api.NewClient(r.servd.url(), api.ClientOptions{})

	// A four-tile scan loads and packs the model and builds the first
	// arenas before the clock starts.
	warm := scanRequest(r.e.seed)
	warm.TileSize = chipSide + scanStride + 1
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	job, err := r.client.StartScan(ctx, warm)
	if err != nil {
		return fmt.Errorf("bench: warm-up scan: %w", err)
	}
	stream, err := r.client.ScanEvents(ctx, job.ID, 0)
	if err != nil {
		return fmt.Errorf("bench: warm-up scan: %w", err)
	}
	defer stream.Close()
	for {
		ev, err := stream.Next()
		if err != nil {
			return fmt.Errorf("bench: warm-up scan: %w", err)
		}
		if ev.Type == api.ScanEventDone {
			if ev.Job.State != api.ScanStateDone {
				return fmt.Errorf("bench: warm-up scan ended %s: %s", ev.Job.State, ev.Job.Error)
			}
			return nil
		}
	}
}

// reference synthesises the first job's watershed here and runs the plan
// on a seeded sample of its tiles.
func (r *scanRun) reference() error {
	plan, err := serve.DirLoader(r.modelDir)("front32")
	if err != nil {
		return err
	}
	src, err := scan.NewSource(scanRequest(r.e.seed))
	if err != nil {
		return err
	}
	r.refs = make(map[int]refTile, scanRefTiles)
	rng := tensor.NewRNG(r.e.seed ^ 0x5CA9)
	for _, pos := range rng.Perm(len(r.walk))[:scanRefTiles] {
		c := r.walk[pos]
		y, err := plan.Forward(src.ChipTensor(c))
		if err != nil {
			return err
		}
		logits := y.Data()
		class := 0
		if logits[1] > logits[0] {
			class = 1
		}
		r.refs[src.Grid.ChipID(c.X, c.Y)] = refTile{class: class, score: scan.PositiveScore(logits)}
	}
	return nil
}

func (r *scanRun) close() error {
	return errors.Join(stopAll(r.servd), os.RemoveAll(r.dir))
}

// jobResult is one scan job as the client saw it.
type jobResult struct {
	firstTile time.Duration   // POST sent → first tile event read
	wall      time.Duration   // POST sent → done event read
	tileLatMS []float64       // per-tile latency as the server reports it
	tileAt    []time.Duration // when each tile event was read, from POST sent
	badTiles  int
	digest    [sha256.Size]byte
	err       error
}

// rateWindow is how many tiles one throughput window of a job spans;
// windows start every half window.
const rateWindow = 64

// tileRates is the job's tile events per second over each window of
// rateWindow consecutive tiles.
func (j jobResult) tileRates() []float64 {
	var rates []float64
	for i := 0; i+rateWindow < len(j.tileAt); i += rateWindow / 2 {
		rates = append(rates, rateWindow/(j.tileAt[i+rateWindow]-j.tileAt[i]).Seconds())
	}
	return rates
}

// jobChecker holds an ordered event stream to the scan contract: gapless
// sequence numbers, tiles in walk order with position-derived IDs, none
// failed, sampled tiles equal to the reference, and a terminal event that
// says done with every tile classified.
type jobChecker struct {
	r      *scanRun
	useRef bool
	seq    int
	tiles  int
	heat   *scan.HeatMap
	res    *jobResult
}

func (r *scanRun) newChecker(useRef bool, res *jobResult) *jobChecker {
	return &jobChecker{r: r, useRef: useRef, res: res, heat: scan.NewHeatMap(scanSide, scanSide, 0.5)}
}

// event consumes one event and reports whether it was the terminal one.
func (c *jobChecker) event(ev api.ScanEvent) (done bool, err error) {
	if ev.Seq != c.seq {
		return false, fmt.Errorf("event seq %d, want %d", ev.Seq, c.seq)
	}
	c.seq++
	switch ev.Type {
	case api.ScanEventTile:
		if ev.Tile == nil || c.tiles >= len(c.r.walk) {
			return false, fmt.Errorf("unexpected tile event %d", c.tiles)
		}
		t, cell := *ev.Tile, c.r.walk[c.tiles]
		if t.X != cell.X || t.Y != cell.Y || t.ID != cell.Y*scanSide+cell.X {
			return false, fmt.Errorf("tile %d is (%d,%d) id %d, walk order says (%d,%d)", c.tiles, t.X, t.Y, t.ID, cell.X, cell.Y)
		}
		c.tiles++
		bad := t.Failed
		if ref, ok := c.r.refs[t.ID]; ok && c.useRef && !bad {
			bad = t.Class != ref.class || math.Abs(t.Score-ref.score) > logitTolerance
		}
		if bad {
			c.res.badTiles++
		}
		c.heat.SetTile(t)
		c.res.tileLatMS = append(c.res.tileLatMS, t.LatencyMS)
	case api.ScanEventDone:
		j := ev.Job
		if j == nil || j.State != api.ScanStateDone || j.TotalTiles != scanTiles || j.DoneTiles != scanTiles || j.FailedTiles != 0 || c.tiles != scanTiles {
			return true, fmt.Errorf("job ended %+v after %d tile events", j, c.tiles)
		}
		c.res.digest = sha256.Sum256(c.heat.PGM())
		return true, nil
	}
	return false, nil
}

// runJob posts one scan to servd and follows its event stream to the end.
func (r *scanRun) runJob(ctx context.Context, seed uint64, useRef bool) (res jobResult) {
	check := r.newChecker(useRef, &res)
	t0 := time.Now()
	job, err := r.client.StartScan(ctx, scanRequest(seed))
	if err != nil {
		res.err = err
		return
	}
	stream, err := r.client.ScanEvents(ctx, job.ID, 0)
	if err != nil {
		res.err = err
		return
	}
	defer stream.Close()
	for {
		ev, err := stream.Next()
		if err != nil {
			res.err = fmt.Errorf("scan %s: event stream: %w", job.ID, err)
			return
		}
		now := time.Since(t0)
		if ev.Type == api.ScanEventTile {
			res.tileAt = append(res.tileAt, now)
		}
		done, err := check.event(ev)
		if err != nil {
			res.err = fmt.Errorf("scan %s: %w", job.ID, err)
			return
		}
		if done {
			res.firstTile, res.wall = res.tileAt[0], now
			return
		}
	}
}

// scanPhase is the jobs of one phase.
type scanPhase struct {
	jobs []jobResult
	counts
}

// runJobs repeats job(k) — k counts from 0 and picks the seed — until the
// phase has lasted its length; the job under way then finishes.
func runJobs(phase time.Duration, job func(k int) jobResult) scanPhase {
	var p scanPhase
	for t0 := time.Now(); len(p.jobs) == 0 || time.Since(t0) < phase; {
		res := job(len(p.jobs))
		p.jobs = append(p.jobs, res)
		p.attempted += scanTiles
		p.failed += res.badTiles
		if res.err != nil {
			p.failed += scanTiles - res.badTiles
			if p.firstErr == nil {
				p.firstErr = res.err
			}
			break
		}
		if res.badTiles > 0 && p.firstErr == nil {
			p.firstErr = fmt.Errorf("scan job %d: %d tiles failed or differ from the reference", len(p.jobs)-1, res.badTiles)
		}
	}
	return p
}

func (r *scanRun) realPhase(phase time.Duration) scanPhase {
	ctx, cancel := context.WithTimeout(context.Background(), phase+2*time.Minute)
	defer cancel()
	return runJobs(phase, func(k int) jobResult { return r.runJob(ctx, r.e.seed+uint64(k), k == 0) })
}

func (p scanPhase) column(f func(jobResult) float64) []float64 {
	out := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		out[i] = f(j)
	}
	return out
}

func (r *scanRun) measure(phase time.Duration, rep *report) (counts, error) {
	p := r.realPhase(phase)
	if p.firstErr != nil {
		return p.counts, nil
	}
	rep.set("latency_p50_ms", quiet(p.column(func(j jobResult) float64 { return ms(j.firstTile) }), lowerIsBetter))
	var rates []float64
	for _, j := range p.jobs {
		rates = append(rates, j.tileRates()...)
	}
	rep.set("throughput_per_s", quiet(rates, higherIsBetter))
	return p.counts, nil
}

func (r *scanRun) trace(phase time.Duration, rep *report) (counts, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var before, after api.ServdStats
	if err := getJSON(ctx, r.servd.url()+"/v1/stats", &before); err != nil {
		return counts{}, err
	}
	cpu0, err := r.servd.usage()
	if err != nil {
		return counts{}, err
	}
	real := r.realPhase(phase / 2)
	c := real.counts
	if err := getJSON(ctx, r.servd.url()+"/v1/stats", &after); err != nil {
		return c, err
	}
	cpu1, err := r.servd.usage()
	if err != nil || c.firstErr != nil {
		return c, err
	}

	var lat []float64
	for _, j := range real.jobs {
		lat = append(lat, j.tileLatMS...)
	}
	rep.set("loadgen.sent", float64(c.attempted))
	rep.set("loadgen.ok", float64(c.attempted-c.failed))
	rep.set("loadgen.failed", float64(c.failed))
	rep.set("loadgen.latency_p95_ms", percentile(lat, 0.95))
	rep.set("loadgen.latency_p99_ms", percentile(lat, 0.99))
	serveLayer(rep, before, after)
	tiles := float64(after.Scan.Tiles - before.Scan.Tiles)
	rep.set("scan.tiles", tiles)
	rep.set("scan.retries", float64(after.Scan.TileRetries-before.Scan.TileRetries))
	rep.set("servd.cpu_ms_per_tile", ms(cpu1.cpu-cpu0.cpu)/tiles)
	rep.set("servd.peak_rss_mb", cpu1.peakRSSMB)

	// The traced replay: the same jobs, same seeds, through scan.Run over
	// a batching server in this process.
	tr := newTracer()
	srv := serve.NewServer(serve.DirLoader(r.modelDir), serve.Options{})
	traced := runJobs(phase/2, func(k int) jobResult { return r.tracedJob(tr, srv, r.e.seed+uint64(k), k == 0) })
	srv.Close()
	c.attempted += traced.attempted
	c.failed += traced.failed
	if c.firstErr == nil {
		c.firstErr = traced.firstErr
	}
	for k := 0; k < min(len(real.jobs), len(traced.jobs)) && c.firstErr == nil; k++ {
		if real.jobs[k].digest != traced.jobs[k].digest {
			c.failed += scanTiles
			c.firstErr = fmt.Errorf("scan job %d: heat map digest differs between servd and the in-process replay of the same seed", k)
		}
	}
	spans := tr.spans()
	if err := writeTrace(r.e.root, scanWorkload{}.name(), r.e.seed, spans); err != nil || c.firstErr != nil {
		return c, err
	}
	ts := summarizeTrace(spans, spanJob)
	rep.set("geodata.source_ms", median(ts.durMS[spanSource]))
	rep.set("scan.classify_p50_ms", median(ts.durMS[spanClassify]))
	rep.set("scan.self_us_per_tile", median(ts.selfMS[spanJob])*1000/scanTiles)
	var emit float64
	for _, d := range ts.durMS[spanEmit] {
		emit += d
	}
	rep.set("scan.emit_us_per_event", emit*1000/float64(len(ts.durMS[spanEmit])))
	traceLayer(rep, ts, median(real.column(func(j jobResult) float64 { return ms(j.wall) })))

	src, err := scan.NewSource(scanRequest(r.e.seed))
	if err != nil {
		return c, err
	}
	i := 0
	rep.set("geodata.chip_us", us(timeCalls(200, func() { src.ChipTensor(r.walk[i%len(r.walk)]); i++ })))
	plan, err := serve.DirLoader(r.modelDir)("front32")
	if err != nil {
		return c, err
	}
	chips := make([]chip, 8)
	for i := range chips {
		chips[i].x = src.ChipTensor(r.walk[i])
	}
	inferProbe(rep, plan, chips)
	convFwdProbe(rep)
	return c, nil
}

// tracedBackend is the bench-owned scan.Backend around ServerBackend.
type tracedBackend struct {
	tr    *tracer
	inner scan.Backend
}

func (b tracedBackend) Classify(ctx context.Context, model string, input *tensor.Tensor) (scan.Result, error) {
	ctx, sp := b.tr.start(ctx, spanClassify)
	defer sp.end()
	return b.inner.Classify(ctx, model, input)
}

// tracedJob runs one scan in this process: scan.NewSource, then scan.Run
// over the wrapped backend, with the event callback doing what the event
// stream does per event (one NDJSON line) before the checks.
func (r *scanRun) tracedJob(tr *tracer, srv *serve.Server, seed uint64, useRef bool) (res jobResult) {
	check := r.newChecker(useRef, &res)
	req := scanRequest(seed)
	ctx, root := tr.start(context.Background(), spanJob)
	defer root.end()
	t0 := tr.now()
	_, sp := tr.start(ctx, spanSource)
	src, err := scan.NewSource(req)
	sp.end()
	if err != nil {
		res.err = err
		return
	}
	enc := json.NewEncoder(io.Discard)
	scan.Run(ctx, scan.Config{
		Req: req, Model: "front32", Source: src,
		Backend: tracedBackend{tr: tr, inner: scan.ServerBackend{S: srv}},
		Job:     api.ScanJob{ID: fmt.Sprintf("traced-%d", seed), Model: "front32", Region: req.Region, Order: req.Order, Seed: seed},
	}, func(ev api.ScanEvent, _ api.ScanJob) {
		at := tr.now()
		err := enc.Encode(ev)
		tr.record(ctx, spanEmit, at, tr.now())
		if ev.Type == api.ScanEventTile {
			res.tileAt = append(res.tileAt, at-t0)
		}
		if res.err == nil && err == nil {
			_, err = check.event(ev)
		}
		if res.err == nil {
			res.err = err
		}
	})
	res.wall = tr.now() - t0
	if len(res.tileAt) > 0 {
		res.firstTile = res.tileAt[0]
	}
	return
}
