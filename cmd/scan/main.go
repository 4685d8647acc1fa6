// Command scan runs a whole-watershed streaming inference job and renders
// the resulting drainage-crossing heat map. The watershed is synthesized
// deterministically from (region, tile size, seed), walked in a locality-
// preserving order, and every chip-sized window is classified through one
// of three serving paths:
//
//	-url     a running servd or router: the job runs remotely through the
//	         POST /v1/scan job API and this command streams its NDJSON
//	         events (resumable, cancellable with ctrl-C)
//	-models  an in-process serving core over a .dnnx model directory — the
//	         same batching path servd uses, without the HTTP hop
//	-device  a latmeter-simulated fleet: tiles are "served" by the paper's
//	         cost model for that device, so scan scheduling and ordering
//	         can be studied without trained models
//
// The heat map is printed as ASCII (one glyph per tile, score deciles) and
// optionally written as a binary PGM with -pgm; the final line is the
// exact-count summary against the synthesized ground truth. Two runs of
// the same scan produce byte-identical heat maps.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/latmeter"
	"drainnas/internal/metrics"
	"drainnas/internal/resnet"
	"drainnas/internal/scan"
	"drainnas/internal/serve"
)

func main() {
	var (
		url    = flag.String("url", "", "base URL of a running servd or router; runs the scan through its job API")
		models = flag.String("models", "", "directory of exported .dnnx containers; runs the scan on an in-process serving core")
		device = flag.String("device", "", "latmeter device name (e.g. cortexA76cpu); simulates the fleet with the paper's cost model")

		model     = flag.String("model", "paper", "model to classify chips with (serving key; \"paper\" for the simulated baseline)")
		precision = flag.String("precision", "", "deployment arithmetic (\"int8\" for the quantized form)")
		slo       = flag.String("slo", "batch", "SLO class for router dispatch (batch, standard, interactive)")
		apiKey    = flag.String("api-key", "", "tenant API key for a key-gated remote tier")

		region    = flag.String("region", "Nebraska", "study region (Nebraska, Illinois, North Dakota, California)")
		tileSize  = flag.Int("tile", 256, "watershed raster side in cells")
		chipSize  = flag.Int("chip", 64, "model input side (one tile of the scan grid)")
		stride    = flag.Int("stride", 0, "grid stride (0 = chip size, non-overlapping)")
		channels  = flag.Int("channels", 5, "model input depth (5 or 7)")
		seed      = flag.Uint64("seed", 1, "watershed synthesis seed")
		order     = flag.String("order", api.ScanOrderHilbert, "tile walk: row-major or hilbert")
		window    = flag.Int("window", 8, "in-flight tile window")
		retries   = flag.Int("retries", 3, "per-tile retries of transient serving errors")
		threshold = flag.Float64("threshold", 0.5, "positive-score cutoff for the crossing count")

		pgmOut   = flag.String("pgm", "", "also write the heat map as a binary PGM to this file")
		noASCII  = flag.Bool("no-ascii", false, "suppress the ASCII heat map (summary only)")
		simScale = flag.Float64("sim-scale", 0, "with -device: scale modeled latency into real sleep time (0 = as fast as possible)")
	)
	flag.Parse()

	req := api.ScanRequest{
		Model: *model, Precision: *precision, SLO: *slo,
		Region: *region, TileSize: *tileSize, ChipSize: *chipSize, Stride: *stride,
		Channels: *channels, Seed: *seed, Order: *order, Window: *window,
		MaxRetries: *retries, Threshold: *threshold,
	}.WithDefaults()
	if err := req.Validate(); err != nil {
		log.Fatalf("scan: %v", err)
	}

	modes := 0
	for _, set := range []bool{*url != "", *models != "", *device != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		log.Fatalf("scan: pick exactly one of -url, -models or -device")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		job api.ScanJob
		hm  *scan.HeatMap
		err error
	)
	switch {
	case *url != "":
		job, hm, err = runRemote(ctx, stop, *url, *apiKey, req)
	case *models != "":
		job, hm, err = runLocal(ctx, *models, req)
	default:
		job, hm, err = runSim(ctx, *device, *simScale, req)
	}
	if err != nil {
		log.Fatalf("scan: %v", err)
	}

	if !*noASCII {
		fmt.Print(hm.ASCII())
	}
	if *pgmOut != "" {
		if err := os.WriteFile(*pgmOut, hm.PGM(), 0o644); err != nil {
			log.Fatalf("scan: writing %s: %v", *pgmOut, err)
		}
		fmt.Fprintf(os.Stderr, "scan: wrote %s (%dx%d)\n", *pgmOut, hm.W, hm.H)
	}
	fmt.Println(hm.Summary(job))
	if job.State == api.ScanStateFailed {
		os.Exit(1)
	}
}

// progress prints one status line per progress event.
func progress(j api.ScanJob) {
	fmt.Fprintf(os.Stderr, "scan %s: %d/%d tiles, %d crossings, %d retries, %d failed (%.0f ms)\n",
		j.ID, j.DoneTiles+j.FailedTiles, j.TotalTiles, j.Crossings, j.Retries, j.FailedTiles, j.ElapsedMS)
}

// runRemote drives the job API of a running tier: start, stream, and on the
// first interrupt cancel the job (the stream then ends with the canceled
// terminal event).
func runRemote(ctx context.Context, stop func(), url, apiKey string, req api.ScanRequest) (api.ScanJob, *scan.HeatMap, error) {
	c := api.NewClient(url, api.ClientOptions{APIKey: apiKey})
	job, err := c.StartScan(context.Background(), req)
	if err != nil {
		return job, nil, err
	}
	fmt.Fprintf(os.Stderr, "scan %s: started on %s (%s, seed %d)\n", job.ID, url, req.Region, req.Seed)

	go func() {
		<-ctx.Done()
		stop() // a second interrupt kills outright
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, err := c.CancelScan(cctx, job.ID); err != nil {
			log.Printf("scan: cancel: %v", err)
		}
	}()

	// Stream on a background context: after a cancel we still want the
	// drained tail and the terminal event.
	stream, err := c.ScanEvents(context.Background(), job.ID, 0)
	if err != nil {
		return job, nil, err
	}
	defer stream.Close()
	var hm *scan.HeatMap
	final := job
	for {
		ev, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return final, hm, err
		}
		switch ev.Type {
		case api.ScanEventTile:
			if hm == nil {
				// Grid dims arrive with the first job-carrying event; poll
				// once if a tile somehow lands first.
				doc, perr := c.ScanStatus(context.Background(), job.ID)
				if perr != nil {
					return final, nil, perr
				}
				hm = scan.NewHeatMap(doc.GridW, doc.GridH, req.Threshold)
			}
			hm.SetTile(*ev.Tile)
		case api.ScanEventProgress, api.ScanEventDone:
			if hm == nil {
				hm = scan.NewHeatMap(ev.Job.GridW, ev.Job.GridH, req.Threshold)
			}
			final = *ev.Job
			if ev.Type == api.ScanEventProgress {
				progress(final)
			}
		}
	}
	if hm == nil {
		hm = scan.NewHeatMap(final.GridW, final.GridH, req.Threshold)
	}
	return final, hm, nil
}

// runDirect executes the scan in-process against a backend, streaming the
// ordered events straight into the heat map.
func runDirect(ctx context.Context, req api.ScanRequest, be scan.Backend, key string) (api.ScanJob, *scan.HeatMap, error) {
	var hm *scan.HeatMap
	job := scan.Run(ctx, scan.Config{
		Req: req, Model: key, Backend: be, Stats: &metrics.ScanStats{},
		Job: api.ScanJob{ID: "local", Model: key, Region: req.Region, Order: req.Order, Seed: req.Seed},
	}, func(ev api.ScanEvent, cur api.ScanJob) {
		if hm == nil && cur.GridW > 0 {
			hm = scan.NewHeatMap(cur.GridW, cur.GridH, req.Threshold)
		}
		switch ev.Type {
		case api.ScanEventTile:
			hm.SetTile(*ev.Tile)
		case api.ScanEventProgress:
			progress(cur)
		}
	})
	if hm == nil {
		hm = scan.NewHeatMap(job.GridW, job.GridH, req.Threshold)
	}
	if job.State == api.ScanStateFailed {
		return job, hm, fmt.Errorf("scan failed: %s", job.Error)
	}
	return job, hm, nil
}

// runLocal serves tiles from an in-process batching core over a model
// directory — servd's serving path without the HTTP hop.
func runLocal(ctx context.Context, dir string, req api.ScanRequest) (api.ScanJob, *scan.HeatMap, error) {
	key, err := api.ResolveServingKey(req.Model, req.Precision)
	if err != nil {
		return api.ScanJob{}, nil, err
	}
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{})
	defer srv.Close()
	return runDirect(ctx, req, scan.ServerBackend{S: srv}, key)
}

// runSim serves tiles from the paper's latmeter cost model for the named
// device: classification comes from the deterministic terrain heuristic,
// latency from the device's batch-1 service time.
func runSim(ctx context.Context, deviceName string, scale float64, req api.ScanRequest) (api.ScanJob, *scan.HeatMap, error) {
	dev, err := latmeter.DeviceByName(deviceName)
	if err != nil {
		return api.ScanJob{}, nil, err
	}
	g, err := latmeter.Decompose(resnet.StockResNet18(req.Channels, 1), req.ChipSize)
	if err != nil {
		return api.ScanJob{}, nil, err
	}
	if req.Precision == "int8" {
		g = g.Int8()
	}
	be := scan.SimBackend{Service: dev.Service(g), Replica: deviceName, SleepScale: scale}
	fmt.Fprintf(os.Stderr, "scan: simulating %s (%.2f ms per chip at batch 1)\n",
		deviceName, be.Service.BatchMS(1))
	return runDirect(ctx, req, be, req.Model)
}
