package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"testing"

	"drainnas/internal/api"
	"drainnas/internal/frontend"
	"drainnas/internal/fronttest"
	"drainnas/internal/httpx"
	"drainnas/internal/latmeter"
	"drainnas/internal/route"
	"drainnas/internal/serve"
)

// router runs the shared surface table (internal/fronttest) over this
// binary's tier, one local replica. Each test below runs one group of its
// rows; what follows a Run is what only the router answers.
var router = fronttest.Harness{Name: "router", New: func(t testing.TB, dir string, so serve.Options) frontend.Tier {
	return newTier(dir, 1, so, route.Options{})
}}

// start mounts a fleet that is not the table's: its size, admission or
// replicas are the point of the test.
func start(t *testing.T, n int, opts route.Options, extra ...route.Replica) *fronttest.Stack {
	h := fronttest.Harness{Name: "router", New: func(t testing.TB, dir string, so serve.Options) frontend.Tier {
		return newTier(dir, n, so, opts, extra...)
	}}
	return h.Start(t, fronttest.Setup{})
}

func TestRouterAPIPredictStatsHealth(t *testing.T) {
	fronttest.Run(t, router, "PredictStatsHealth")

	// Round-robin over two replicas: both serve, and every answer says who.
	s := start(t, 2, route.Options{})
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		pr := s.MustPredict(t, "tiny", "interactive")
		if pr.Replica == "" {
			t.Fatalf("prediction without replica attribution: %+v", pr)
		}
		seen[pr.Replica]++
	}
	if seen["local-0"] != 2 || seen["local-1"] != 2 {
		t.Fatalf("replica spread %v, want 2 each", seen)
	}
	var stats api.RouterStats
	s.GetJSON(t, "/v1/stats", &stats)
	if stats.Router.Submitted != 4 || stats.Router.Completed != 4 {
		t.Fatalf("router stats %+v", stats.Router)
	}
	if stats.Router.PerClass["interactive"].Completed != 4 {
		t.Fatalf("per-class stats %+v", stats.Router.PerClass)
	}
	if stats.Router.PerReplica["local-0"].Picked != 2 || stats.Router.PerReplica["local-1"].Picked != 2 {
		t.Fatalf("per-replica stats %+v", stats.Router.PerReplica)
	}
	// The fleet shares one serving sink: the aggregate sees all four.
	if stats.Serving.Completed != 4 {
		t.Fatalf("serving aggregate %+v", stats.Serving)
	}
	if len(stats.Replicas) != 2 || stats.Policy != route.PolicyRoundRobin {
		t.Fatalf("fleet descriptor %+v / %q", stats.Replicas, stats.Policy)
	}
	var health api.HealthResponse
	s.GetJSON(t, "/v1/healthz", &health)
	if health.Replicas != 2 || health.Policy != route.PolicyRoundRobin {
		t.Fatalf("health %+v", health)
	}
}

func TestRouterAPIErrorMapping(t *testing.T) {
	fronttest.Run(t, router, "ErrorMapping")
	fronttest.Run(t, router, "ErrorEnvelope")
	fronttest.Run(t, router, "QueueFull")
}

func TestRouterAccessLogRequestID(t *testing.T)     { fronttest.Run(t, router, "AccessLogRequestID") }
func TestRouterAPITraceRecording(t *testing.T)      { fronttest.Run(t, router, "TraceRecording") }
func TestRouterAPISurfaceRoutes(t *testing.T)       { fronttest.Run(t, router, "SurfaceRoutes") }
func TestRouterAPISurfaceUnauthorized(t *testing.T) { fronttest.Run(t, router, "SurfaceUnauthorized") }
func TestRouterAPISurfaceGolden(t *testing.T) {
	fronttest.Run(t, router, "Golden")
	fronttest.Run(t, router, "GoldenKeys")
}

// TestRouterAPIThrottledAndNoReplicas pins the router's two own error codes
// on the wire: token-bucket rejection answers 429/throttled with a
// Retry-After hint, and an empty fleet answers 503/no_replicas.
func TestRouterAPIThrottledAndNoReplicas(t *testing.T) {
	s := start(t, 1, route.Options{Rate: 0.001, Burst: 1})
	s.MustPredict(t, "tiny", "")
	resp, body := fronttest.Do(t, "POST", s.URL+"/v1/predict", "", fronttest.PredictBody(t, "tiny", ""))
	fronttest.Envelope(t, resp, body, api.CodeThrottled)

	empty := start(t, 0, route.Options{})
	resp, body = fronttest.Do(t, "POST", empty.URL+"/v1/predict", "", fronttest.PredictBody(t, "tiny", "batch"))
	fronttest.Envelope(t, resp, body, api.CodeNoReplicas)
	if resp, _ = fronttest.Do(t, "GET", empty.URL+"/v1/healthz", "", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz of an empty fleet -> %d, want 503", resp.StatusCode)
	}
}

func TestRouterAPISurfaceErrorEnvelopes(t *testing.T) {
	fronttest.Run(t, router, "SurfaceErrorEnvelopes")
}

// TestRouterMetricsEndpoint: router counters plus the fleet's aggregated
// serving counters in one exposition.
func TestRouterMetricsEndpoint(t *testing.T) {
	fronttest.Run(t, router, "MetricsEndpoint").Metrics(t,
		`drainnas_router_requests_total{outcome="completed"} 3`,
		`drainnas_router_decisions_total{policy="round-robin"} 3`,
		`drainnas_router_class_requests_total{class="batch",outcome="completed"} 3`,
		`drainnas_router_replica_attempts_total{replica="local-0",outcome="picked"}`)
}

// TestRouterServesInt8Precision: the precision rows, and an int8 answer
// still says which replica served it.
func TestRouterServesInt8Precision(t *testing.T) {
	s := fronttest.Run(t, router, "PredictPrecision")
	if pr := s.MustPredict(t, "tiny@int8", ""); pr.Precision != "int8" || pr.Replica == "" {
		t.Fatalf("malformed int8 routed prediction %+v", pr)
	}
}

// TestRouterTenantTier: the tenant rows, and the router's own sections
// beside the tenant's.
func TestRouterTenantTier(t *testing.T) {
	s := fronttest.Run(t, router, "TenantTier")
	var stats api.RouterStats
	s.GetJSON(t, "/v1/stats", &stats)
	if stats.Router.Completed == 0 || stats.Serving.Completed == 0 || len(stats.Replicas) != 1 {
		t.Fatalf("router/serving sections behind the tenant tier: %+v / %+v", stats.Router, stats.Serving)
	}
}

// TestRouterEchoesRemotePrecision: an int8 request served by a remote
// replica is answered as int8. The HTTP adapter used to rebuild the serving
// key from the replica's bare model name, so the router said "fp32" about a
// request servd had run — and reported — as int8.
func TestRouterEchoesRemotePrecision(t *testing.T) {
	servd := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _, err := api.ReadPredict(r)
		if err != nil {
			t.Errorf("hop body: %v", err)
		}
		key, err := req.ResolveKey()
		if err != nil || key != "front@int8" {
			t.Errorf("hop serving key %q, %v; want front@int8", key, err)
		}
		model, precision := api.SplitServedModel(key)
		httpx.WriteJSON(w, http.StatusOK, api.PredictResponse{
			Model: model, Precision: precision, Class: 1, Logits: []float32{0.1, 0.9}, BatchSize: 1,
		})
	}))
	defer servd.Close()
	s := start(t, 0, route.Options{}, route.NewHTTPReplica("remote-0", servd.URL, nil))
	if pr := s.MustPredict(t, "front@int8", ""); pr.Model != "front" || pr.Precision != "int8" || pr.Replica != "remote-0" {
		t.Fatalf("answer %+v; want model front at precision int8 from remote-0", pr)
	}
}

// TestSeedEstimatesIncludeInt8Keys pins the precision-aware SJF seeding:
// every deployed model gets an estimate in both precisions, with the int8
// form strictly cheaper by the cost scale, and each seed is bit for bit the
// batch-1 service time the simulator ranks SJF by.
func TestSeedEstimatesIncludeInt8Keys(t *testing.T) {
	dir := t.TempDir()
	fronttest.WriteModels(t, dir)
	seeds, err := seedEstimates("cortexA76cpu", dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tiny", "wide"} {
		f, ok := seeds[name]
		if !ok {
			t.Fatalf("no fp32 seed for %s: %v", name, seeds)
		}
		q, ok := seeds[name+"@int8"]
		if !ok {
			t.Fatalf("no int8 seed for %s: %v", name, seeds)
		}
		if !(q < f) {
			t.Fatalf("%s: int8 seed %.4f not below fp32 %.4f", name, q, f)
		}
		plan, err := serve.DirLoader(dir)(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := plan.CostGraph(32)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := latmeter.DeviceByName("cortexA76cpu")
		if err != nil {
			t.Fatal(err)
		}
		if want := dev.Service(g).BatchMS(1); math.Float64bits(f) != math.Float64bits(want) {
			t.Errorf("%s: fp32 seed %v, simulator service time %v", name, f, want)
		}
		if want := dev.Service(g.Int8()).BatchMS(1); math.Float64bits(q) != math.Float64bits(want) {
			t.Errorf("%s: int8 seed %v, simulator service time %v", name, q, want)
		}
	}
}

// --- binary-level tests -------------------------------------------------

// startRouter builds the real binary and boots it over the test models.
func startRouter(t *testing.T, args ...string) (*fronttest.Proc, string) {
	t.Helper()
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	dir := t.TempDir()
	fronttest.WriteModels(t, dir)
	bin := fronttest.Build(t, dir, "router", false)
	return fronttest.StartProc(t, bin, append([]string{"-models", dir}, args...)...), bin
}

// TestRouterSmoke is the CI gate (make router-smoke): boot the real binary
// over three in-process replicas, push 200 mixed-model mixed-SLO requests
// through it, require non-zero traffic on every replica, then drain cleanly
// on SIGTERM.
func TestRouterSmoke(t *testing.T) {
	p, _ := startRouter(t, "-replicas", "3", "-policy", "round-robin",
		"-sched", "priority", "-max-inflight", "16", "-drain", "20s")
	s := fronttest.Stack{URL: p.URL}
	models := []string{"tiny", "wide"}
	slos := []string{"", "interactive", "batch", "standard"}
	for i := 0; i < 200; i++ {
		if pr := s.MustPredict(t, models[i%2], slos[i%4]); pr.Replica == "" {
			t.Fatalf("request %d: no replica attribution", i)
		}
	}
	var stats api.RouterStats
	s.GetJSON(t, "/v1/stats", &stats)
	if stats.Router.Completed != 200 || stats.Serving.Completed != 200 {
		t.Fatalf("completed router=%d serving=%d, want 200/200", stats.Router.Completed, stats.Serving.Completed)
	}
	if len(stats.Router.PerReplica) != 3 {
		t.Fatalf("per-replica breakdown %v, want 3 replicas", stats.Router.PerReplica)
	}
	for id, pr := range stats.Router.PerReplica {
		if pr.Picked == 0 || pr.Completed == 0 {
			t.Fatalf("replica %s saw no traffic: %+v (full: %v)", id, pr, stats.Router.PerReplica)
		}
	}
	p.Term(t)
}

// TestRouterBinarySJFSeeding boots the binary with -sched sjf and a
// -predict-device, exercising the plan→cost-graph→latency seeding path end
// to end (a bad device name must fail fast instead).
func TestRouterBinarySJFSeeding(t *testing.T) {
	p, bin := startRouter(t, "-replicas", "2", "-sched", "sjf", "-max-inflight", "1", "-predict-device", "cortexA76cpu")
	s := fronttest.Stack{URL: p.URL}
	s.MustPredict(t, "tiny", "")
	s.MustPredict(t, "wide", "")

	bad := exec.Command(bin, "-models", t.TempDir(), "-predict-device", "no-such-device")
	if out, err := bad.CombinedOutput(); err == nil {
		t.Fatalf("router accepted an unknown predict device:\n%s", out)
	}
}
