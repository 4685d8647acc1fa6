// Command servd serves exported model containers over HTTP with dynamic
// micro-batching: the production-shaped front end for the Pareto-front
// models the NAS pipeline selects. Containers live in a model directory
// (one .dnnx file per model, written by cmd/deploy -out or any
// onnxsize.Export caller); requests are admitted into internal/serve's
// bounded queue, batched per (model, spatial size), and executed on a
// worker pool through the standalone inference runtime.
//
// API (canonical paths under /v1/; the unversioned /healthz and /metrics
// aliases are deprecated — responses carry a Deprecation header and a Link
// to the successor, and the aliases are scheduled for removal, see README):
//
//	POST /v1/predict   {"model":"name","shape":[C,H,W],"data":[...],
//	                    "precision":"int8"?}
//	                   -> {"model","precision","class","logits",
//	                       "batch_size","queued_ms","total_ms"}
//	                   precision selects the deployment arithmetic: "int8"
//	                   serves the post-training-quantized form of the same
//	                   container (equivalently, model "name@int8"); the
//	                   values may instead travel as "data_b64", base64 of
//	                   little-endian float32 (what the router forwards)
//	POST /v1/scan      start a whole-watershed scan job: every chip-sized
//	                   window of a synthesized watershed is classified
//	                   through the batcher and reassembled into an ordered
//	                   crossing heat map (202 + job document)
//	GET  /v1/scan/{id}        poll the job document
//	GET  /v1/scan/{id}/events NDJSON event stream, ?from=<seq> resumes
//	DELETE /v1/scan/{id}      cancel; in-flight tiles drain first
//	GET  /v1/stats     serving counters + model cache + infer plan/session
//	                   counters + GEMM kernel counters
//	GET  /v1/metrics   the same counters in Prometheus text exposition
//	                   format, including latency histograms and quantiles
//	GET  /v1/healthz   liveness + available models; 503 "degraded" when the
//	                   model directory is unreadable
//	GET  /v1/dashboard live dashboard (HTML); /v1/dashboard/ws streams
//	                   snapshots over WebSocket, /v1/dashboard/events over
//	                   SSE for clients that cannot upgrade
//	GET  /debug/pprof/ runtime profiles (only with -pprof)
//
// With -keys the multi-tenant edge tier fronts /v1/predict: requests carry
// an API key (Authorization: Bearer or X-API-Key), pass their tenant's
// token-bucket quota, and wait their weighted-fair turn (-tenant-inflight
// slots) before reaching the batcher. The key file hot-reloads, /v1/stats
// and /metrics grow per-tenant sections, the dashboard becomes
// key-gated, and every authenticated request leaves an audit log line.
//
// Errors share one JSON envelope with a stable machine-readable code:
//
//	{"error":{"code":"queue_full","message":"...","request_id":"..."}}
//
// Codes: bad_input (400), unauthorized (401), model_not_found (404),
// queue_full and quota_exceeded (429, with Retry-After), shutting_down
// (503), canceled (503), internal (500). Every response carries an
// X-Request-ID (honoring a well-formed incoming one) and is access-logged
// with its latency.
//
// On SIGINT/SIGTERM the server stops accepting connections, drains in-flight
// requests for up to -drain, closes the serving core (flushing pending
// batches) and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/httpx"
	"drainnas/internal/metrics"
	"drainnas/internal/scan"
	"drainnas/internal/serve"
	"drainnas/internal/sim"
	"drainnas/internal/tenant"
	"drainnas/internal/tensor"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		models    = flag.String("models", ".", "directory of exported .dnnx model containers")
		maxBatch  = flag.Int("max-batch", 8, "flush a batch at this many requests")
		maxDelay  = flag.Duration("max-delay", 2*time.Millisecond, "flush a non-empty batch after this delay")
		queueCap  = flag.Int("queue", 256, "bounded admission queue capacity")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		cacheCap  = flag.Int("cache", 4, "resident model cache capacity")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		pprofFlag = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		traceOut  = flag.String("trace", "", "record arrivals (t_ms, model, slo, shape) as JSONL to this file for capsim replay")

		keys           = flag.String("keys", "", "tenant API key file (JSON); enables the multi-tenant edge tier on /v1/predict")
		keysRecheck    = flag.Duration("keys-recheck", 5*time.Second, "how often to re-stat the key file for hot reload")
		tenantInflight = flag.Int("tenant-inflight", 0, "weighted-fair admission slots across tenants (0 = auth+quota only)")
		dashInterval   = flag.Duration("dashboard-interval", time.Second, "live dashboard push interval")
	)
	flag.Parse()

	var edge *tenant.Tier
	if *keys != "" {
		var err error
		if edge, err = tenant.LoadTier(*keys, *keysRecheck, *tenantInflight, "servd"); err != nil {
			log.Fatalf("servd: %v", err)
		}
		log.Printf("servd: tenant tier enabled (%d tenants, fair slots %d)", edge.TenantCount(), *tenantInflight)
	}

	var rec *sim.TraceWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("servd: opening trace file: %v", err)
		}
		rec = sim.NewTraceWriter(f)
		log.Printf("servd: recording serving trace to %s", *traceOut)
	}

	srv := serve.NewServer(serve.DirLoader(*models), serve.Options{
		MaxBatch: *maxBatch, MaxDelay: *maxDelay,
		QueueCap: *queueCap, Workers: *workers, CacheCap: *cacheCap,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("servd: %v", err)
	}

	mux := newAPIWithTenant(srv, *models, rec, edge, *dashInterval)
	if *pprofFlag {
		registerPprof(mux)
	}
	hs := &http.Server{
		Handler: withAccessLog(mux),
		// A predict request can legitimately sit in the batching queue, so the
		// write timeout is generous; the read timeouts bound slow-loris bodies
		// and idle keep-alives.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("servd: listening on %s (models from %s)", ln.Addr(), *models)
	if *pprofFlag {
		log.Printf("servd: pprof enabled under /debug/pprof/")
	}

	select {
	case err := <-serveErr:
		// The listener failed outright; nothing is draining.
		srv.Close()
		closeTrace(rec)
		log.Fatalf("servd: %v", err)
	case <-ctx.Done():
		stop() // a second signal kills immediately instead of re-draining
		log.Printf("servd: shutdown signal; draining for up to %s", *drain)
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			log.Printf("servd: drain incomplete: %v", err)
		}
		// The HTTP side is quiet (or timed out); flush the batcher so every
		// admitted request is answered before the process exits.
		srv.Close()
		closeTrace(rec)
		log.Printf("servd: drained, exiting")
	}
}

// closeTrace flushes the recorded trace, if recording; a truncated trace is
// worth a log line because replay determinism depends on the file.
func closeTrace(rec *sim.TraceWriter) {
	if rec == nil {
		return
	}
	if err := rec.Close(); err != nil {
		log.Printf("servd: flushing trace: %v", err)
	} else {
		log.Printf("servd: trace flushed (%d events)", rec.Count())
	}
}

// withAccessLog tags servd's access log lines; the middleware itself
// (request-ID minting/propagation, status/bytes/latency capture) lives in
// internal/httpx, shared with cmd/router.
func withAccessLog(h http.Handler) http.Handler { return httpx.AccessLog("servd", h) }

// registerPprof wires the net/http/pprof handlers onto mux explicitly — the
// server never exposes http.DefaultServeMux, so the package's init-time
// registrations alone would be unreachable.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// newAPI builds the HTTP handler over a serving core. Split from main so
// tests drive it in-process. Canonical paths live under /v1/; /healthz and
// /metrics are kept as aliases so existing probes and scrape configs keep
// working.
func newAPI(srv *serve.Server, modelDir string) *http.ServeMux {
	return newAPIWithTrace(srv, modelDir, nil)
}

// newAPIWithTrace is newAPI plus optional arrival recording: every predict
// that resolves to a valid serving key is appended to rec before admission,
// so the trace captures offered load (including requests the queue later
// rejects), which is what capacity replay needs.
func newAPIWithTrace(srv *serve.Server, modelDir string, rec *sim.TraceWriter) *http.ServeMux {
	return newAPIWithTenant(srv, modelDir, rec, nil, 0)
}

// newAPIWithTenant is the full assembly: when edge is non-nil, /v1/predict
// sits behind the multi-tenant tier (API-key auth, per-tenant quotas,
// weighted-fair admission) and /v1/stats and /metrics grow per-tenant
// sections. The live dashboard is always mounted; it is auth-gated exactly
// when the tier is on.
func newAPIWithTenant(srv *serve.Server, modelDir string, rec *sim.TraceWriter, edge *tenant.Tier, dashInterval time.Duration) *http.ServeMux {
	mux := http.NewServeMux()

	var predict http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, r, err := api.ReadPredict(r)
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, api.CodeBadInput, fmt.Sprintf("bad request body: %v", err))
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
		if rec != nil {
			rec.Record(key, req.SLO, req.Shape)
		}
		resp, err := srv.Submit(r.Context(), key, input)
		if err != nil {
			status, code := http.StatusInternalServerError, api.CodeInternal
			switch {
			case errors.Is(err, serve.ErrQueueFull):
				status, code = http.StatusTooManyRequests, api.CodeQueueFull
				w.Header().Set("Retry-After", "1")
			case errors.Is(err, serve.ErrClosed):
				status, code = http.StatusServiceUnavailable, api.CodeShuttingDown
			case errors.Is(err, serve.ErrModelNotFound):
				status, code = http.StatusNotFound, api.CodeModelNotFound
			case errors.Is(err, r.Context().Err()):
				// Client went away; the status is moot but 503 is honest.
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
		})
	})
	if edge != nil {
		predict = edge.Wrap(predict)
	}
	mux.Handle("POST /v1/predict", predict)

	// Whole-watershed scan jobs run against this process's serving core.
	scanStats := &metrics.ScanStats{}
	scans := scan.NewManager(scanStats, scan.DefaultMaxRunning)
	scan.Register(mux, scans, edge, func(api.ScanRequest) (scan.Backend, error) {
		return scan.ServerBackend{S: srv}, nil
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		stats := api.ServdStats{
			Serving: srv.Stats().Snapshot(),
			Cache:   srv.Cache().Stats(),
			Queue:   srv.QueueDepth(),
			Infer:   metrics.Infer.Snapshot(),
			Kernel:  metrics.Kernel.Snapshot(),
			Gemm:    tensor.GemmKernelName(),
			QGemm:   tensor.QGemmKernelName(),
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
			Service: "servd",
			Serving: srv.Stats().Snapshot(),
			Tenants: edge.Stats().Snapshot(),
			Fair:    edge.Fair().SnapshotFair(),
		}
	}).Register(mux)

	handleMetrics := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		e := metrics.NewExpositionWriter(w)
		srv.Stats().Snapshot().WriteProm(e)
		writeCacheProm(e, srv.Cache().Stats())
		metrics.Infer.Snapshot().WriteProm(e)
		metrics.Kernel.Snapshot().WriteProm(e)
		scanStats.Snapshot().WriteProm(e)
		if edge != nil {
			edge.Stats().Snapshot().WriteProm(e)
		}
		if err := e.Flush(); err != nil {
			log.Printf("servd: writing /metrics: %v", err)
		}
	}
	mux.HandleFunc("GET /v1/metrics", handleMetrics)
	mux.HandleFunc("GET /metrics", httpx.Deprecated("servd", "/metrics", "/v1/metrics", handleMetrics))

	handleHealthz := func(w http.ResponseWriter, r *http.Request) {
		keys, err := serve.ListModels(modelDir)
		if err != nil {
			// An unreadable model directory means every predict will 404 or
			// 500: say so instead of reporting ok with zero models.
			httpx.WriteJSON(w, http.StatusServiceUnavailable, api.HealthResponse{
				Status: "degraded",
				Error:  err.Error(),
			})
			return
		}
		httpx.WriteJSON(w, http.StatusOK, api.HealthResponse{
			Status: "ok",
			Models: keys,
		})
	}
	mux.HandleFunc("GET /v1/healthz", handleHealthz)
	mux.HandleFunc("GET /healthz", httpx.Deprecated("servd", "/healthz", "/v1/healthz", handleHealthz))

	return mux
}

// writeCacheProm exports the model-cache counters; the cache lives in
// internal/serve (which imports metrics), so the exposition mapping sits
// here rather than creating an import cycle.
func writeCacheProm(e *metrics.ExpositionWriter, cs serve.CacheStats) {
	e.Gauge("drainnas_model_cache_resident", "Resident model runtimes.", float64(cs.Len))
	e.Gauge("drainnas_model_cache_capacity", "Model cache capacity.", float64(cs.Capacity))
	e.Counter("drainnas_model_cache_hits_total", "Model lookups served from cache.", float64(cs.Hits))
	e.Counter("drainnas_model_cache_misses_total", "Model lookups that loaded from disk.", float64(cs.Misses))
	e.Counter("drainnas_model_cache_evictions_total", "Models evicted to respect capacity.", float64(cs.Evictions))
}
