package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/dataset"
	"drainnas/internal/infer"
	"drainnas/internal/latmeter"
	"drainnas/internal/metrics"
	"drainnas/internal/onnxsize"
	"drainnas/internal/report"
	"drainnas/internal/resnet"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

// deployment is trainer's edge-deployment drill: with -out, -load or -url
// set, the model trainer just trained is exported to the ONNX-like
// container, reloaded with the standalone inference runtime, checked for
// prediction agreement over every corpus chip and timed next to the
// per-device latency predictions. With -load N it then drives the batching
// serving layer (internal/serve, or a running tier with -url) with N
// concurrent requests and reports throughput, latency percentiles and
// batching efficiency — the serving-side counterpart of the paper's
// per-device latency tables.
type deployment struct {
	out                                   string
	requests, clients, maxBatch, queueCap int
	maxDelay                              time.Duration
	url, model, apiKey, slo, precision    string
}

// deploymentFlags registers the deployment drill's flags on fs.
func deploymentFlags(fs *flag.FlagSet) *deployment {
	d := &deployment{}
	fs.StringVar(&d.out, "out", "", "export the trained model, check it in the inference runtime and write the container to this file")
	fs.IntVar(&d.requests, "load", 0, "after deployment checks, drive the serving layer with this many requests (0 = skip)")
	fs.IntVar(&d.clients, "load-clients", 8, "concurrent clients for the load drive")
	fs.IntVar(&d.maxBatch, "load-max-batch", 8, "serving MaxBatch during the load drive")
	fs.DurationVar(&d.maxDelay, "load-max-delay", 2*time.Millisecond, "serving MaxDelay during the load drive: the longest a request waits for company")
	fs.IntVar(&d.queueCap, "load-queue", 256, "serving queue capacity during the load drive")
	fs.StringVar(&d.url, "url", "", "with -load: drive a running servd/router tier at this base URL instead of an in-process server (the tier must already serve -model)")
	fs.StringVar(&d.model, "model", "", "model key to request in remote mode (default: the trained config's key)")
	fs.StringVar(&d.apiKey, "api-key", "", "API key for a remote tier running with -keys")
	fs.StringVar(&d.slo, "slo", "", "SLO class for remote requests through a router (batch, standard, interactive)")
	fs.StringVar(&d.precision, "precision", "", "precision selector for remote requests (fp32, int8)")
	return d
}

// wanted reports whether any flag on the parsed fs asks for the drill. A
// load drive without clients would never hand out its requests, and a
// remote tier is only contacted by a load drive, so either is a usage
// error (exit 2) before anything prints.
func (d *deployment) wanted(fs *flag.FlagSet) bool {
	switch {
	case d.requests > 0 && d.clients < 1:
		fmt.Fprintf(fs.Output(), "invalid value %d for flag -load-clients: must be at least 1 with -load\n", d.clients)
	case d.url != "" && d.requests < 1:
		fmt.Fprintf(fs.Output(), "invalid value %q for flag -url: needs -load above 0\n", d.url)
	default:
		return d.out != "" || d.requests > 0
	}
	fs.Usage()
	os.Exit(2)
	return false
}

// run exports model (trained on inputs standardized like splits), checks
// the reloaded plan against it on every chip of splits, and runs the load
// drive the flags ask for.
func (d *deployment) run(model *resnet.Model, cfg resnet.Config, chip int, splits ...*dataset.Dataset) {
	var buf bytes.Buffer
	n, err := onnxsize.Export(model, &buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexported container: %.2f MB (%d bytes)\n", float64(n)/1e6, n)
	if d.out != "" {
		if err := os.WriteFile(d.out, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("written to %s\n", d.out)
	}

	plan, err := infer.LoadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan compiled: %s (%d input channels, %d ops)\n\n",
		plan.Name(), plan.InputChannels(), plan.OpCount())
	sess := plan.NewSession()

	agree, correct, total := 0, 0, 0
	for _, data := range splits {
		for _, idxs := range data.Batches(cfg.Batch, nil) {
			x, labels := data.Batch(idxs)
			modelPreds := tensor.ArgMaxRows(model.Forward(x, false))
			rtPreds, err := sess.Classify(x)
			if err != nil {
				log.Fatal(err)
			}
			for i, p := range rtPreds {
				if p == modelPreds[i] {
					agree++
				}
				if p == labels[i] {
					correct++
				}
			}
			total += len(idxs)
		}
	}
	fmt.Printf("prediction agreement (runtime vs training model): %d/%d\n", agree, total)
	fmt.Printf("runtime accuracy over every corpus chip: %d/%d\n\n", correct, total)

	// Batch-1 CPU timing next to the device predictions. The session's
	// activation arena is warm after the first rep, so this measures the
	// zero-alloc steady state a pinned edge deployment sees.
	data := splits[0]
	single, _ := data.Batch([]int{0})
	const reps = 10
	start := time.Now()
	for range reps {
		if _, err := sess.Forward(single); err != nil {
			log.Fatal(err)
		}
	}
	hostMS := float64(time.Since(start).Microseconds()) / 1000 / reps
	fmt.Printf("host CPU inference (batch 1, %dpx): %.2f ms\n", chip, hostMS)
	pred, err := latmeter.Predict(cfg, chip)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted edge-device latency at %dpx:\n", chip)
	for i, dev := range latmeter.Devices() {
		fmt.Printf("  %-14s %8.2f ms\n", dev.Name, pred.PerDevice[i])
	}
	fmt.Printf("  mean %.2f ms  std %.2f ms\n", pred.MeanMS, pred.StdMS)

	switch {
	case d.requests <= 0:
	case d.url == "":
		d.driveLoad(buf.Bytes(), cfg.Key(), data)
	case d.model == "":
		d.driveRemote(cfg.Key(), data)
	default:
		d.driveRemote(d.model, data)
	}
}

// driveLoad stands up the batching serving layer over the exported
// container and drives it in process, reporting the metrics that matter for
// deployment sizing: throughput, latency percentiles, achieved batch size
// and backpressure counts.
func (d *deployment) driveLoad(container []byte, key string, data *dataset.Dataset) {
	fmt.Printf("\nload test: %d requests, %d clients (max-batch %d, max-delay %s)\n",
		d.requests, d.clients, d.maxBatch, d.maxDelay)
	stats := &metrics.ServingStats{}
	srv := serve.NewServer(
		func(string) (*infer.Plan, error) { return infer.LoadPlan(bytes.NewReader(container)) },
		serve.Options{
			MaxBatch: d.maxBatch, MaxDelay: d.maxDelay,
			QueueCap: d.queueCap, Stats: stats,
		})
	defer srv.Close()

	// Pre-slice single-sample inputs so client goroutines only submit.
	inputs := make([]*tensor.Tensor, d.clients)
	for i := range inputs {
		inputs[i], _ = data.Batch([]int{i % data.Len()})
	}
	d.drive(func(ctx context.Context, c int) error {
		_, err := srv.Submit(ctx, key, inputs[c])
		return err
	}, func(err error) bool { return errors.Is(err, serve.ErrQueueFull) })

	snap := stats.Snapshot()
	fmt.Printf("  batches %d  mean batch %.2f  max queue depth %d  queue wait p99 %.2fms\n",
		snap.Batches, snap.MeanBatch, snap.MaxQueueDepth, snap.QueueWait.P99MS)
}

// driveRemote drives a running tier over HTTP through the typed api.Client
// — the deployment-sizing drill for a fleet you cannot link into the
// process. The client retries transient capacity rejections (queue_full,
// throttled, quota_exceeded) twice with backoff, so the reported rejection
// count is what survives the retry policy, matching what a production
// caller would see. The chips it sends are standardized as trainer's
// were; the tier passes them to the plan as they arrive.
func (d *deployment) driveRemote(key string, data *dataset.Dataset) {
	client := api.NewClient(d.url, api.ClientOptions{
		APIKey: d.apiKey, Retries: 2, RetryBackoff: 50 * time.Millisecond,
	})
	health, err := client.Health(context.Background())
	if err != nil {
		log.Fatalf("remote health check: %v", err)
	}
	fmt.Printf("\nremote tier %s: status=%s models=%v\n", client.Base(), health.Status, health.Models)

	fmt.Printf("remote load test: %d requests, %d clients against %q\n",
		d.requests, d.clients, key)
	reqs := make([]api.PredictRequest, d.clients)
	for i := range reqs {
		x, _ := data.Batch([]int{i % data.Len()})
		if reqs[i], err = api.PredictFromTensor(key, d.slo, x); err != nil {
			log.Fatal(err)
		}
		reqs[i].Precision = d.precision
	}
	d.drive(func(ctx context.Context, c int) error {
		_, err := client.Predict(ctx, reqs[c])
		return err
	}, func(err error) bool {
		switch api.ErrorCode(err) {
		case api.CodeQueueFull, api.CodeThrottled, api.CodeQuotaExceeded:
			return true
		}
		return false
	})
}

// drive fires d.requests requests from d.clients concurrent clients
// through submit (client c reuses its own pre-built input) and prints the
// served/rejected/failed split, the throughput and the client-observed
// latency distribution; rejected tells capacity backpressure apart from
// failure. Latencies stream into a lock-free metrics.Histogram — the same
// machinery the tiers export on /v1/metrics — so the drive itself adds no
// mutex contention to the measured path.
func (d *deployment) drive(submit func(ctx context.Context, client int) error, rejected func(error) bool) {
	hist := metrics.NewHistogram()
	var served, rejects, failed atomic.Int64
	var wg sync.WaitGroup
	next := make(chan struct{})
	start := time.Now()
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for range next {
				t0 := time.Now()
				switch err := submit(context.Background(), c); {
				case err == nil:
					served.Add(1)
					hist.Observe(time.Since(t0))
				case rejected(err):
					rejects.Add(1)
				default:
					failed.Add(1)
				}
			}
		}(c)
	}
	for range d.requests {
		next <- struct{}{}
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)

	fmt.Printf("  served %d/%d in %s (%.1f req/s), rejected %d, failed %d\n",
		served.Load(), d.requests, wall.Round(time.Millisecond),
		float64(served.Load())/wall.Seconds(), rejects.Load(), failed.Load())
	fmt.Print(report.LatencyBars("  client-observed latency", hist.Snapshot(), 40))
}
