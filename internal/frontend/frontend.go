// Package frontend is the one assembly that turns a serving tier into the
// /v1/ surface and runs it. cmd/servd and cmd/router each implement Tier
// over what they own (a serve.Server; a route.Router and its local fleet)
// and hand it to New and Serve; everything a client can observe that does
// not depend on the tier — the predict decode and answer, the error
// envelope, the tenant edge, scan jobs, the stats/metrics/health/dashboard
// mounts, the access log, the listen-to-drain lifecycle — exists here once.
// The routes are api.Routes, the error codes api.KnownCodes.
package frontend

import (
	"context"
	"errors"
	"flag"
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
	"drainnas/internal/route"
	"drainnas/internal/scan"
	"drainnas/internal/serve"
	"drainnas/internal/sim"
	"drainnas/internal/tenant"
	"drainnas/internal/tensor"
)

// Tier is what genuinely differs between the serving binaries.
type Tier interface {
	// Name tags log lines and dashboard frames: an api.Route tier name.
	Name() string
	// Submit serves one request under its serving key. A tier without a
	// dispatch order of its own ignores class.
	Submit(ctx context.Context, class route.SLOClass, key string, input *tensor.Tensor) (route.Response, error)
	// ScanBackend is where a scan job's tiles go.
	ScanBackend(class route.SLOClass) scan.Backend
	// Stats is the tier's /v1/stats document (api.ServdStats or
	// api.RouterStats) with the shared sections filled in from sec; its
	// prom tags make it the /v1/metrics page as well.
	Stats(sec Sections) any
	// Health is the /v1/healthz body; any Status but "ok" answers 503.
	Health() api.HealthResponse
	// Serving is the dashboard frame's serving snapshot.
	Serving() metrics.ServingSnapshot
	// Close flushes and stops the tier; Serve calls it after the drain.
	Close()
}

// Sections are the /v1/stats sections the assembly owns, identical on both
// tiers. Tenant and Fair are nil without the tenant tier.
type Sections struct {
	Tenant *metrics.TenantSnapshot
	Fair   *api.FairStats
	Scan   *metrics.ScanSnapshot
}

// Config is everything about a front end that is not the tier.
type Config struct {
	Addr  string
	Drain time.Duration
	// Keys names the tenant key file; Serve loads Edge from it. Tests set
	// Edge directly.
	Keys              string
	KeysRecheck       time.Duration
	TenantInflight    int
	Edge              *tenant.Tier
	DashboardInterval time.Duration
	// Trace, when set, records every predict that reaches admission.
	Trace *sim.TraceWriter
	Pprof bool
}

// Flags registers the flags servd and router share on fs, bound to the
// returned config and per-server options. per prefixes the batching
// flags' usage ("per-replica: " on the router).
func Flags(fs *flag.FlagSet, addr, per string) (*Config, *serve.Options) {
	cfg, so := &Config{}, &serve.Options{}
	fs.StringVar(&cfg.Addr, "addr", addr, "listen address")
	fs.DurationVar(&cfg.Drain, "drain", 10*time.Second, "graceful shutdown drain timeout")
	fs.StringVar(&cfg.Keys, "keys", "", "tenant API key file (JSON); enables the multi-tenant edge tier on /v1/predict")
	fs.DurationVar(&cfg.KeysRecheck, "keys-recheck", 5*time.Second, "how often to re-stat the key file for hot reload")
	fs.IntVar(&cfg.TenantInflight, "tenant-inflight", 0, "weighted-fair admission slots across tenants (0 = auth+quota only)")
	fs.DurationVar(&cfg.DashboardInterval, "dashboard-interval", time.Second, "live dashboard push interval")
	fs.IntVar(&so.MaxBatch, "max-batch", 8, per+"flush a batch at this many requests")
	fs.DurationVar(&so.MaxDelay, "max-delay", 2*time.Millisecond, per+"flush a non-empty batch after this delay")
	fs.IntVar(&so.QueueCap, "queue", 256, per+"bounded admission queue capacity")
	fs.IntVar(&so.Workers, "workers", 0, per+"batches executing at once (0 = GOMAXPROCS)")
	fs.IntVar(&so.CacheCap, "cache", 4, per+"resident model cache capacity")
	return cfg, so
}

// errorTable is the one mapping from a serving or routing sentinel to its
// wire code; the status each code is written under is api.KnownCodes'.
var errorTable = []struct {
	is   error
	code string
}{
	{route.ErrThrottled, api.CodeThrottled},
	{route.ErrNoReplicas, api.CodeNoReplicas},
	{route.ErrClosed, api.CodeShuttingDown},
	{serve.ErrClosed, api.CodeShuttingDown},
	{serve.ErrQueueFull, api.CodeQueueFull},
	{serve.ErrModelNotFound, api.CodeModelNotFound},
}

// errorCode classifies a Submit error. A request whose own context ended
// is canceled (the status is moot, the client is gone); anything unlisted
// is internal.
func errorCode(ctx context.Context, err error) string {
	for _, row := range errorTable {
		if errors.Is(err, row.is) {
			return row.code
		}
	}
	if errors.Is(err, ctx.Err()) {
		return api.CodeCanceled
	}
	return api.CodeInternal
}

// fail writes code's envelope under the status api.KnownCodes pins for it;
// every 429 tells the client when to come back.
func fail(w http.ResponseWriter, code, msg string) {
	status := api.KnownCodes[code]
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	httpx.Error(w, status, code, msg)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// New mounts the /v1/ surface over t behind the access log.
func New(t Tier, cfg Config) http.Handler {
	mux := http.NewServeMux()
	edge := cfg.Edge

	var predict http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, r, err := api.ReadPredict(r)
		if err != nil {
			fail(w, api.CodeBadInput, "bad request body: "+err.Error())
			return
		}
		class, err := route.ParseClass(req.SLO)
		if err != nil {
			fail(w, api.CodeBadInput, err.Error())
			return
		}
		input, err := req.Tensor()
		if err != nil {
			fail(w, api.CodeBadInput, err.Error())
			return
		}
		key, err := req.ResolveKey()
		if err != nil {
			fail(w, api.CodeBadInput, err.Error())
			return
		}
		// Recorded before admission: the trace is offered load, including
		// what the tier goes on to reject.
		if cfg.Trace != nil {
			cfg.Trace.Record(key, req.SLO, req.Shape)
		}
		resp, err := t.Submit(r.Context(), class, key, input)
		if err != nil {
			fail(w, errorCode(r.Context(), err), err.Error())
			return
		}
		model, precision := api.SplitServedModel(resp.Model)
		httpx.WriteJSON(w, http.StatusOK, api.PredictResponse{
			Model:     model,
			Precision: precision,
			Class:     resp.Class,
			Logits:    resp.Logits,
			BatchSize: resp.BatchSize,
			QueuedMS:  ms(resp.Queued),
			TotalMS:   ms(resp.Total),
			Replica:   resp.Replica,
			Hedged:    resp.Hedged,
		})
	})
	if edge != nil {
		predict = edge.Wrap(predict)
	}
	mux.Handle("POST /v1/predict", predict)

	scanStats := &metrics.ScanStats{}
	scan.Register(mux, scan.NewManager(scanStats, scan.DefaultMaxRunning), edge,
		func(req api.ScanRequest) (scan.Backend, error) {
			class, err := route.ParseClass(req.SLO)
			if err != nil {
				return nil, err
			}
			return t.ScanBackend(class), nil
		})

	// One document serves both endpoints: /v1/stats marshals it, /v1/metrics
	// renders the prom tags of the same value.
	stats := func() any {
		sc := scanStats.Snapshot()
		sec := Sections{Scan: &sc}
		if edge != nil {
			tn, fair := edge.Stats().Snapshot(), edge.Fair().SnapshotFair()
			sec.Tenant, sec.Fair = &tn, &fair
		}
		return t.Stats(sec)
	}
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, stats())
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		e := metrics.NewExpositionWriter(w)
		e.Write(stats())
		if err := e.Flush(); err != nil {
			log.Printf("%s: writing /v1/metrics: %v", t.Name(), err)
		}
	})

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		h, status := t.Health(), http.StatusOK
		if h.Status != "ok" {
			status = http.StatusServiceUnavailable
		}
		httpx.WriteJSON(w, status, h)
	})

	// The dashboard is always mounted and key-gated exactly when the
	// tenant tier is on.
	tenant.NewDashboard(edge, cfg.DashboardInterval, func() tenant.DashboardSnapshot {
		return tenant.DashboardSnapshot{
			Service: t.Name(),
			Serving: t.Serving(),
			Tenants: edge.Stats().Snapshot(),
			Fair:    edge.Fair().SnapshotFair(),
		}
	}).Register(mux)

	if cfg.Pprof {
		// Mounted by hand: http.DefaultServeMux, where net/http/pprof
		// registers itself, is never served.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return httpx.AccessLog(t.Name(), mux)
}

// Serve is the lifecycle of a front end: load the tenant tier if a key
// file is named, listen, serve, and on SIGINT/SIGTERM stop accepting, drain
// in-flight requests for up to cfg.Drain, then close the tier so every
// admitted request is answered before the process exits. detail completes
// the "listening on" line. A listener failure closes the tier and is
// returned; a drained shutdown returns nil.
func Serve(t Tier, cfg Config, detail string) error {
	name := t.Name()
	if cfg.Keys != "" {
		edge, err := tenant.LoadTier(cfg.Keys, cfg.KeysRecheck, cfg.TenantInflight, name)
		if err != nil {
			return err
		}
		cfg.Edge = edge
		log.Printf("%s: tenant tier enabled (%d tenants, fair slots %d)", name, edge.TenantCount(), cfg.TenantInflight)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler: New(t, cfg),
		// A predict can legitimately sit in a batching queue, so the write
		// timeout is generous; the read timeouts bound slow-loris bodies
		// and idle keep-alives.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	closeTier := func() {
		t.Close()
		if cfg.Trace == nil {
			return
		}
		// Replay determinism depends on the file being whole.
		if err := cfg.Trace.Close(); err != nil {
			log.Printf("%s: flushing trace: %v", name, err)
		} else {
			log.Printf("%s: trace flushed (%d events)", name, cfg.Trace.Count())
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("%s: listening on %s (%s)", name, ln.Addr(), detail)
	if cfg.Pprof {
		log.Printf("%s: pprof enabled under /debug/pprof/", name)
	}

	select {
	case err := <-serveErr:
		closeTier()
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately instead of re-draining
		log.Printf("%s: shutdown signal; draining for up to %s", name, cfg.Drain)
		shCtx, cancel := context.WithTimeout(context.Background(), cfg.Drain)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			log.Printf("%s: drain incomplete: %v", name, err)
		}
		closeTier()
		log.Printf("%s: drained, exiting", name)
		return nil
	}
}
