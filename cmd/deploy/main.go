// Command deploy exercises the edge-deployment path end to end: train a
// configuration briefly on the synthetic corpus, export it to the
// ONNX-like container, reload it with the standalone inference runtime,
// verify prediction agreement, and time CPU inference next to the
// per-device latency predictions. With -load N it additionally drives the
// batching serving layer (internal/serve) with N concurrent requests and
// reports throughput, latency percentiles and batching efficiency — the
// serving-side counterpart of the paper's per-device latency tables.
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
	"drainnas/internal/geodata"
	"drainnas/internal/infer"
	"drainnas/internal/latmeter"
	"drainnas/internal/metrics"
	"drainnas/internal/nas"
	"drainnas/internal/onnxsize"
	"drainnas/internal/report"
	"drainnas/internal/resnet"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

func main() {
	var (
		channels = flag.Int("channels", 5, "input channels (5 or 7)")
		kernel   = flag.Int("kernel", 3, "stem kernel size")
		stride   = flag.Int("stride", 2, "stem stride")
		padding  = flag.Int("padding", 1, "stem padding")
		pool     = flag.Int("pool", 1, "stem max-pool choice (0/1)")
		width    = flag.Int("width", 32, "initial output feature width")
		epochs   = flag.Int("epochs", 4, "training epochs before export")
		chip     = flag.Int("chip", 32, "chip size")
		scale    = flag.Int("scale", 150, "corpus scale divisor")
		out      = flag.String("out", "", "also write the container to this file")

		load         = flag.Int("load", 0, "after deployment checks, drive the serving layer with this many requests (0 = skip)")
		loadClients  = flag.Int("load-clients", 8, "concurrent clients for the load drive")
		loadBatch    = flag.Int("load-max-batch", 8, "serving MaxBatch during the load drive")
		loadDelay    = flag.Duration("load-max-delay", 2*time.Millisecond, "serving MaxDelay during the load drive")
		loadQueueCap = flag.Int("load-queue", 256, "serving queue capacity during the load drive")

		url         = flag.String("url", "", "drive a running servd/router tier at this base URL instead of an in-process server (the tier must already serve -model)")
		remoteModel = flag.String("model", "", "model key to request in remote mode (default: the trained config's key)")
		apiKey      = flag.String("api-key", "", "API key for a remote tier running with -keys")
		slo         = flag.String("slo", "", "SLO class for remote requests through a router (batch, standard, interactive)")
		precision   = flag.String("precision", "", "precision selector for remote requests (fp32, int8)")
	)
	flag.Parse()
	// GenerateCorpus quietly replaces a chip size or scale below 1 with its
	// default, so such a value is a usage error naming the flag (exit 2),
	// not a corpus other than the one asked for.
	for _, f := range []struct {
		name string
		v    int
	}{{"chip", *chip}, {"scale", *scale}} {
		if f.v < 1 {
			fmt.Fprintf(flag.CommandLine.Output(), "invalid value %d for flag -%s: must be at least 1\n", f.v, f.name)
			flag.Usage()
			os.Exit(2)
		}
	}

	cfg := resnet.Config{
		Channels: *channels, Batch: 8,
		KernelSize: *kernel, Stride: *stride, Padding: *padding,
		PoolChoice: *pool, KernelSizePool: 3, StridePool: 2,
		InitialOutputFeature: *width, NumClasses: 2,
	}
	if err := cfg.Validate(); err != nil {
		log.Fatalf("deploy: %v", err)
	}

	fmt.Printf("training %s for %d epochs on a miniature corpus...\n", cfg.Key(), *epochs)
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: *chip, Scale: *scale, Seed: 9})
	x, labels := corpus.Tensors(*channels)
	data := dataset.New(x, labels)
	stats := data.ComputeStats()
	data.Normalize(stats)

	rng := tensor.NewRNG(9)
	model, err := resnet.New(cfg, rng)
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	tr := nas.NewTrainer(model, nas.TrainOptions{Epochs: *epochs, LR: 0.02, Momentum: 0.9, WeightDecay: 1e-4})
	for e := 0; e < *epochs; e++ {
		tr.Epoch(e, data, rng)
	}

	var buf bytes.Buffer
	n, err := onnxsize.Export(model, &buf)
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	fmt.Printf("exported container: %.2f MB (%d bytes)\n", float64(n)/1e6, n)
	if *out != "" {
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			log.Fatalf("deploy: %v", err)
		}
		fmt.Printf("written to %s\n", *out)
	}

	plan, err := infer.LoadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	fmt.Printf("plan compiled: %s (%d input channels, %d ops)\n\n",
		plan.Name(), plan.InputChannels(), plan.OpCount())
	sess := plan.NewSession()

	// Agreement check over a batch spread across the corpus (it is ordered
	// by region and label, so strided sampling mixes both classes).
	var probeIdx []int
	strideN := data.Len() / 8
	if strideN < 1 {
		strideN = 1
	}
	for i := 0; i < data.Len() && len(probeIdx) < 8; i += strideN {
		probeIdx = append(probeIdx, i)
	}
	probe, probeLabels := data.Batch(probeIdx)
	modelPreds := tensor.ArgMaxRows(model.Forward(probe, false))
	rtPreds, err := sess.Classify(probe)
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	agree := 0
	for i := range modelPreds {
		if modelPreds[i] == rtPreds[i] {
			agree++
		}
	}
	fmt.Printf("prediction agreement (runtime vs training model): %d/%d\n", agree, len(modelPreds))
	correct := 0
	for i, p := range rtPreds {
		if p == probeLabels[i] {
			correct++
		}
	}
	fmt.Printf("runtime accuracy on probe batch: %d/%d\n\n", correct, len(rtPreds))

	// Batch-1 CPU timing next to the device predictions. The session's
	// activation arena is warm after the first rep, so this measures the
	// zero-alloc steady state a pinned edge deployment sees.
	single, _ := data.Batch([]int{0})
	const reps = 10
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := sess.Forward(single); err != nil {
			log.Fatalf("deploy: %v", err)
		}
	}
	hostMS := float64(time.Since(start).Microseconds()) / 1000 / reps
	fmt.Printf("host CPU inference (batch 1, %dpx): %.2f ms\n", *chip, hostMS)
	pred, err := latmeter.Predict(cfg, *chip)
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	fmt.Printf("predicted edge-device latency at %dpx:\n", *chip)
	for _, d := range latmeter.Devices() {
		fmt.Printf("  %-14s %8.2f ms\n", d.Name, pred.PerDevice[d.Name])
	}
	fmt.Printf("  mean %.2f ms  std %.2f ms\n", pred.MeanMS, pred.StdMS)

	if *load > 0 {
		opts := loadOptions{
			requests: *load, clients: *loadClients,
			maxBatch: *loadBatch, maxDelay: *loadDelay, queueCap: *loadQueueCap,
		}
		if *url != "" {
			key := *remoteModel
			if key == "" {
				key = cfg.Key()
			}
			driveRemote(data, opts, remoteOptions{
				url: *url, model: key, apiKey: *apiKey, slo: *slo, precision: *precision,
			})
		} else {
			driveLoad(buf.Bytes(), cfg, data, opts)
		}
	}
}

type loadOptions struct {
	requests, clients int
	maxBatch          int
	maxDelay          time.Duration
	queueCap          int
}

// driveLoad stands up the batching serving layer over the exported
// container and drives it in process, reporting the metrics that matter for
// deployment sizing: throughput, latency percentiles, achieved batch size
// and backpressure counts.
func driveLoad(container []byte, cfg resnet.Config, data *dataset.Dataset, opts loadOptions) {
	fmt.Printf("\nload test: %d requests, %d clients (max-batch %d, max-delay %s)\n",
		opts.requests, opts.clients, opts.maxBatch, opts.maxDelay)
	stats := &metrics.ServingStats{}
	srv := serve.NewServer(
		func(key string) (*infer.Plan, error) { return infer.LoadPlan(bytes.NewReader(container)) },
		serve.Options{
			MaxBatch: opts.maxBatch, MaxDelay: opts.maxDelay,
			QueueCap: opts.queueCap, Stats: stats,
		})
	defer srv.Close()

	// Pre-slice single-sample inputs so client goroutines only submit.
	inputs := make([]*tensor.Tensor, opts.clients)
	for i := range inputs {
		inputs[i], _ = data.Batch([]int{i % data.Len()})
	}
	drive(opts, func(ctx context.Context, c int) error {
		_, err := srv.Submit(ctx, cfg.Key(), inputs[c])
		return err
	}, func(err error) bool { return errors.Is(err, serve.ErrQueueFull) })

	snap := stats.Snapshot()
	fmt.Printf("  batches %d  mean batch %.2f  max queue depth %d  queue wait p99 %.2fms\n",
		snap.Batches, snap.MeanBatch, snap.MaxQueueDepth, snap.QueueWait.P99MS)
}

type remoteOptions struct {
	url, model, apiKey, slo, precision string
}

// driveRemote drives a running tier over HTTP through the typed api.Client
// — the deployment-sizing drill for a fleet you cannot link into the
// process. The client retries transient capacity rejections (queue_full,
// throttled, quota_exceeded) twice with backoff, so the reported rejection
// count is what survives the retry policy, matching what a production
// caller would see.
func driveRemote(data *dataset.Dataset, opts loadOptions, remote remoteOptions) {
	client := api.NewClient(remote.url, api.ClientOptions{
		APIKey: remote.apiKey, Retries: 2, RetryBackoff: 50 * time.Millisecond,
	})
	health, err := client.Health(context.Background())
	if err != nil {
		log.Fatalf("deploy: remote health check: %v", err)
	}
	fmt.Printf("\nremote tier %s: status=%s models=%v\n", client.Base(), health.Status, health.Models)

	fmt.Printf("remote load test: %d requests, %d clients against %q\n",
		opts.requests, opts.clients, remote.model)
	reqs := make([]api.PredictRequest, opts.clients)
	for i := range reqs {
		x, _ := data.Batch([]int{i % data.Len()})
		if reqs[i], err = api.PredictFromTensor(remote.model, remote.slo, x); err != nil {
			log.Fatalf("deploy: %v", err)
		}
		reqs[i].Precision = remote.precision
	}
	drive(opts, func(ctx context.Context, c int) error {
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

// drive fires opts.requests requests from opts.clients concurrent clients
// through submit (client c reuses its own pre-built input) and prints the
// served/rejected/failed split, the throughput and the client-observed
// latency distribution; rejected tells capacity backpressure apart from
// failure. Latencies stream into a lock-free metrics.Histogram — the same
// machinery the tiers export on /v1/metrics — so the drive itself adds no
// mutex contention to the measured path.
func drive(opts loadOptions, submit func(ctx context.Context, client int) error, rejected func(error) bool) {
	hist := metrics.NewHistogram()
	var served, rejects, failed atomic.Int64
	var wg sync.WaitGroup
	next := make(chan struct{})
	start := time.Now()
	for c := 0; c < opts.clients; c++ {
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
	for i := 0; i < opts.requests; i++ {
		next <- struct{}{}
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)

	fmt.Printf("  served %d/%d in %s (%.1f req/s), rejected %d, failed %d\n",
		served.Load(), opts.requests, wall.Round(time.Millisecond),
		float64(served.Load())/wall.Seconds(), rejects.Load(), failed.Load())
	fmt.Print(report.LatencyBars("  client-observed latency", hist.Snapshot(), 40))
}
