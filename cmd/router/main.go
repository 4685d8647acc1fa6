// Command router is the cluster-scale front tier over the batching
// inference servers: it spreads /v1/predict traffic across a replica fleet
// through a pluggable placement policy, with token-bucket admission, SLO-
// class-aware dispatch ordering, and hedged retries that cancel the losing
// attempt. Replicas are either in-process serving cores sharing this
// process (-replicas N over one model directory) or remote servd instances
// reached over HTTP (-backends url,url,...), interchangeable behind the
// same routing tier.
//
// The API mirrors servd's /v1/ surface so clients and probes move between
// tiers unchanged:
//
//	POST /v1/predict   {"model","shape","data"|"data_b64","slo"?,"precision"?} ->
//	                   {"model","precision","class","logits","batch_size",
//	                    "queued_ms","total_ms","replica","hedged"?}
//	POST /v1/scan      start a whole-watershed scan job whose tiles fan
//	                   across the fleet under the request's SLO class;
//	                   GET /v1/scan/{id} polls, GET /v1/scan/{id}/events
//	                   streams NDJSON (?from= resumes), DELETE cancels
//	GET  /v1/stats     routing counters (per policy/class/replica) plus the
//	                   fleet's aggregated serving counters
//	GET  /v1/metrics   the same in Prometheus text exposition format
//	GET  /v1/healthz   liveness + replica fleet size and policy
//	GET  /v1/dashboard live dashboard (WebSocket at /v1/dashboard/ws, SSE
//	                   fallback at /v1/dashboard/events)
//
// The unversioned /healthz and /metrics aliases are deprecated: responses
// carry a Deprecation header and a Link to the successor, and the aliases
// are scheduled for removal (see README).
//
// Errors reuse the shared envelope; the router adds two codes on top of
// servd's set: throttled (429, token-bucket admission) and no_replicas
// (503, empty fleet). With -keys the multi-tenant edge tier (shared with
// servd) fronts /v1/predict, adding unauthorized (401) and quota_exceeded
// (429) plus weighted-fair admission across tenants.
//
// With -sched sjf the dispatch order needs per-model latency estimates
// before any traffic has flowed; the router seeds them by lowering each
// deployed model's compiled plan into latmeter's kernel graph and pricing
// it on the -predict-device cost model, then refines with a measured EWMA.
//
// On SIGINT/SIGTERM the router stops accepting connections, drains
// in-flight requests for up to -drain, closes the routing tier and the
// local replicas' serving cores, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/httpx"
	"drainnas/internal/infer"
	"drainnas/internal/latmeter"
	"drainnas/internal/metrics"
	"drainnas/internal/route"
	"drainnas/internal/scan"
	"drainnas/internal/serve"
	"drainnas/internal/tenant"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8090", "listen address")
		models      = flag.String("models", ".", "directory of exported .dnnx model containers (local replicas)")
		replicas    = flag.Int("replicas", 3, "in-process serving replicas (0 with -backends for a pure proxy tier)")
		backends    = flag.String("backends", "", "comma-separated base URLs of remote servd replicas")
		policyName  = flag.String("policy", route.PolicyRoundRobin, "placement policy: round-robin, least-loaded or affinity")
		schedName   = flag.String("sched", "fcfs", "dispatch order under -max-inflight: fcfs, priority or sjf")
		maxInflight = flag.Int("max-inflight", 0, "bound on concurrently dispatched requests (0 = unlimited)")
		hedgeAfter  = flag.Duration("hedge-after", 0, "launch a hedge attempt on a second replica after this long (0 = off)")
		retryErr    = flag.Bool("retry-on-error", false, "redispatch retryable replica errors to an untried replica")
		rate        = flag.Float64("rate", 0, "token-bucket admission rate in requests/second (0 = unlimited)")
		burst       = flag.Float64("burst", 1, "token-bucket burst capacity")
		device      = flag.String("predict-device", "", "latmeter device for seeding sjf latency estimates (empty = no seed)")
		predictSize = flag.Int("predict-size", latmeter.DefaultInputSize, "image side assumed for latency seeding")
		maxBatch    = flag.Int("max-batch", 8, "per-replica: flush a batch at this many requests")
		maxDelay    = flag.Duration("max-delay", 2*time.Millisecond, "per-replica: flush a non-empty batch after this delay")
		queueCap    = flag.Int("queue", 256, "per-replica: bounded admission queue capacity")
		workers     = flag.Int("workers", 0, "per-replica: worker pool size (0 = GOMAXPROCS)")
		cacheCap    = flag.Int("cache", 4, "per-replica: resident model cache capacity")
		drain       = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")

		keys           = flag.String("keys", "", "tenant API key file (JSON); enables the multi-tenant edge tier on /v1/predict")
		keysRecheck    = flag.Duration("keys-recheck", 5*time.Second, "how often to re-stat the key file for hot reload")
		tenantInflight = flag.Int("tenant-inflight", 0, "weighted-fair admission slots across tenants (0 = auth+quota only)")
		dashInterval   = flag.Duration("dashboard-interval", time.Second, "live dashboard push interval")
	)
	flag.Parse()

	var edge *tenant.Tier
	if *keys != "" {
		var err error
		if edge, err = tenant.LoadTier(*keys, *keysRecheck, *tenantInflight, "router"); err != nil {
			log.Fatalf("router: %v", err)
		}
		log.Printf("router: tenant tier enabled (%d tenants, fair slots %d)", edge.TenantCount(), *tenantInflight)
	}

	policy, err := route.PolicyByName(*policyName)
	if err != nil {
		log.Fatalf("router: %v", err)
	}
	sched, err := route.ParseSchedMode(*schedName)
	if err != nil {
		log.Fatalf("router: %v", err)
	}

	// Local replicas share one ServingStats so the fleet's serving counters
	// aggregate into a single exposition (per-replica traffic split comes
	// from the router's own per-replica counters instead).
	serving := &metrics.ServingStats{}
	var (
		reps   []route.Replica
		locals []*route.LocalReplica
	)
	for i := 0; i < *replicas; i++ {
		srv := serve.NewServer(serve.DirLoader(*models), serve.Options{
			MaxBatch: *maxBatch, MaxDelay: *maxDelay,
			QueueCap: *queueCap, Workers: *workers, CacheCap: *cacheCap,
			Stats: serving,
		})
		lr := route.NewLocalReplica(fmt.Sprintf("local-%d", i), srv)
		locals = append(locals, lr)
		reps = append(reps, lr)
	}
	// The HTTP replicas share one transport that keeps as many idle
	// connections per backend as the router lets requests through at once;
	// http.DefaultClient keeps 2 and redials for the rest.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = max(*maxInflight, *tenantInflight, http.DefaultMaxIdleConnsPerHost)
	client := &http.Client{Transport: transport}
	for _, base := range strings.Split(*backends, ",") {
		base = strings.TrimSpace(strings.TrimSuffix(base, "/"))
		if base != "" {
			reps = append(reps, route.NewHTTPReplica("", base, client))
		}
	}
	if len(reps) == 0 {
		log.Fatalf("router: no replicas (-replicas 0 and no -backends)")
	}

	seeds, err := seedEstimates(*device, *models, *predictSize)
	if err != nil {
		log.Fatalf("router: %v", err)
	}

	router := route.New(route.Options{
		Policy:         policy,
		Sched:          sched,
		MaxInFlight:    *maxInflight,
		HedgeAfter:     *hedgeAfter,
		RetryOnError:   *retryErr,
		Rate:           *rate,
		Burst:          *burst,
		EstimateSeedMS: seeds,
	}, reps...)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("router: %v", err)
	}
	hs := &http.Server{
		Handler:           httpx.AccessLog("router", newAPIWithTenant(router, serving, *models, edge, *dashInterval)),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("router: listening on %s (%d local + %d remote replicas, policy %s, sched %s)",
		ln.Addr(), len(locals), len(reps)-len(locals), policy.Name(), sched)

	closeFleet := func() {
		router.Close()
		for _, lr := range locals {
			lr.Server().Close()
		}
	}
	select {
	case err := <-serveErr:
		closeFleet()
		log.Fatalf("router: %v", err)
	case <-ctx.Done():
		stop() // a second signal kills immediately instead of re-draining
		log.Printf("router: shutdown signal; draining for up to %s", *drain)
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			log.Printf("router: drain incomplete: %v", err)
		}
		closeFleet()
		log.Printf("router: drained, exiting")
	}
}

// seedEstimates prices every deployed model's compiled plan on the named
// latmeter device, giving the SJF scheduler latency estimates before the
// first request. Each model is seeded in both precisions — the fp32 key
// from its cost graph directly, and the "@int8" key from the same graph
// under latmeter's int8 cost scale — so a quantized request is ordered by
// its cheaper cost from the first dispatch. An empty device name disables
// seeding (estimates then start at 0 and come entirely from the measured
// EWMA).
func seedEstimates(device, modelDir string, inputSize int) (map[string]float64, error) {
	if device == "" {
		return nil, nil
	}
	dev, err := latmeter.DeviceByName(device)
	if err != nil {
		return nil, err
	}
	keys, err := serve.ListModels(modelDir)
	if err != nil {
		return nil, fmt.Errorf("seeding estimates: %w", err)
	}
	loader := serve.DirLoader(modelDir)
	seeds := make(map[string]float64, 2*len(keys))
	for _, key := range keys {
		plan, err := loader(key)
		if err != nil {
			return nil, fmt.Errorf("seeding estimates: %s: %w", key, err)
		}
		g, err := plan.CostGraph(inputSize)
		if err != nil {
			// A model that cannot run at this input size simply goes
			// unseeded; the EWMA takes over once real traffic sizes it.
			log.Printf("router: not seeding %s: %v", key, err)
			continue
		}
		seeds[key] = dev.LatencyMS(g)
		qg := g
		qg.CostScale = latmeter.Int8CostScale
		seeds[infer.ModelKey(key, infer.PrecisionInt8)] = dev.LatencyMS(qg)
	}
	return seeds, nil
}

// newAPI builds the HTTP handler over the routing tier. Split from main so
// tests drive it in-process.
func newAPI(router *route.Router, serving *metrics.ServingStats, modelDir string) *http.ServeMux {
	return newAPIWithTenant(router, serving, modelDir, nil, 0)
}

// newAPIWithTenant is newAPI plus the optional multi-tenant edge tier in
// front of /v1/predict, mirroring servd's assembly so clients see the same
// auth and quota surface at either tier.
func newAPIWithTenant(router *route.Router, serving *metrics.ServingStats, modelDir string, edge *tenant.Tier, dashInterval time.Duration) *http.ServeMux {
	mux := http.NewServeMux()

	var predict http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, r, err := api.ReadPredict(r)
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, api.CodeBadInput, fmt.Sprintf("bad request body: %v", err))
			return
		}
		class, err := route.ParseClass(req.SLO)
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, api.CodeBadInput, err.Error())
			return
		}
		input, err := req.Tensor()
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, api.CodeBadInput, err.Error())
			return
		}
		key, err := req.ResolveKey()
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, api.CodeBadInput, err.Error())
			return
		}
		resp, err := router.SubmitClass(r.Context(), class, key, input)
		if err != nil {
			status, code := http.StatusInternalServerError, api.CodeInternal
			switch {
			case errors.Is(err, route.ErrThrottled):
				status, code = http.StatusTooManyRequests, api.CodeThrottled
				w.Header().Set("Retry-After", "1")
			case errors.Is(err, route.ErrNoReplicas):
				status, code = http.StatusServiceUnavailable, api.CodeNoReplicas
			case errors.Is(err, route.ErrClosed), errors.Is(err, serve.ErrClosed):
				status, code = http.StatusServiceUnavailable, api.CodeShuttingDown
			case errors.Is(err, serve.ErrQueueFull):
				status, code = http.StatusTooManyRequests, api.CodeQueueFull
				w.Header().Set("Retry-After", "1")
			case errors.Is(err, serve.ErrModelNotFound):
				status, code = http.StatusNotFound, api.CodeModelNotFound
			case errors.Is(err, r.Context().Err()):
				status, code = http.StatusServiceUnavailable, api.CodeCanceled
			}
			httpx.Error(w, status, code, err.Error())
			return
		}
		model, precision := api.SplitServedModel(resp.Model)
		httpx.WriteJSON(w, http.StatusOK, api.PredictResponse{
			Model:     model,
			Precision: precision,
			Class:     resp.Class,
			Logits:    resp.Logits,
			BatchSize: resp.BatchSize,
			QueuedMS:  float64(resp.Queued) / float64(time.Millisecond),
			TotalMS:   float64(resp.Total) / float64(time.Millisecond),
			Replica:   resp.Replica,
			Hedged:    resp.Hedged,
		})
	})
	if edge != nil {
		predict = edge.Wrap(predict)
	}
	mux.Handle("POST /v1/predict", predict)

	// Whole-watershed scan jobs fan their tiles across the replica fleet;
	// the job's SLO string picks the dispatch class (batch is the natural
	// choice for a bulk scan).
	scanStats := &metrics.ScanStats{}
	scans := scan.NewManager(scanStats, scan.DefaultMaxRunning)
	scan.Register(mux, scans, edge, func(req api.ScanRequest) (scan.Backend, error) {
		class, err := route.ParseClass(req.SLO)
		if err != nil {
			return nil, err
		}
		return scan.RouterBackend{R: router, Class: class}, nil
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		ids := make([]string, 0, 8)
		for _, rep := range router.Replicas() {
			ids = append(ids, rep.ID())
		}
		stats := api.RouterStats{
			Router:   router.Stats().Snapshot(),
			Serving:  serving.Snapshot(),
			Replicas: ids,
			Policy:   router.Policy().Name(),
			Waiting:  router.Waiting(),
		}
		sc := scanStats.Snapshot()
		stats.Scan = &sc
		if edge != nil {
			tn := edge.Stats().Snapshot()
			fair := edge.Fair().SnapshotFair()
			stats.Tenant, stats.Fair = &tn, &fair
		}
		httpx.WriteJSON(w, http.StatusOK, stats)
	})

	tenant.NewDashboard(edge, dashInterval, func() tenant.DashboardSnapshot {
		return tenant.DashboardSnapshot{
			Service: "router",
			Serving: serving.Snapshot(),
			Tenants: edge.Stats().Snapshot(),
			Fair:    edge.Fair().SnapshotFair(),
		}
	}).Register(mux)

	handleMetrics := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		e := metrics.NewExpositionWriter(w)
		router.Stats().Snapshot().WriteProm(e)
		serving.Snapshot().WriteProm(e)
		scanStats.Snapshot().WriteProm(e)
		if edge != nil {
			edge.Stats().Snapshot().WriteProm(e)
		}
		if err := e.Flush(); err != nil {
			log.Printf("router: writing /metrics: %v", err)
		}
	}
	mux.HandleFunc("GET /v1/metrics", handleMetrics)
	mux.HandleFunc("GET /metrics", httpx.Deprecated("router", "/metrics", "/v1/metrics", handleMetrics))

	handleHealthz := func(w http.ResponseWriter, r *http.Request) {
		reps := router.Replicas()
		if len(reps) == 0 {
			httpx.WriteJSON(w, http.StatusServiceUnavailable, api.HealthResponse{
				Status: "degraded",
				Error:  "no replicas",
			})
			return
		}
		keys, err := serve.ListModels(modelDir)
		if err != nil {
			keys = nil // a pure proxy tier has no local model directory
		}
		httpx.WriteJSON(w, http.StatusOK, api.HealthResponse{
			Status:   "ok",
			Replicas: len(reps),
			Policy:   router.Policy().Name(),
			Models:   keys,
		})
	}
	mux.HandleFunc("GET /v1/healthz", handleHealthz)
	mux.HandleFunc("GET /healthz", httpx.Deprecated("router", "/healthz", "/v1/healthz", handleHealthz))

	return mux
}
