package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"

	"drainnas/internal/api"
	"drainnas/internal/frontend"
	"drainnas/internal/fronttest"
	"drainnas/internal/metrics"
	"drainnas/internal/serve"
)

// servd runs the shared surface table (internal/fronttest) over this
// binary's tier. Each test below runs one group of its rows; what follows
// a Run is what only servd answers.
var servd = fronttest.Harness{Name: "servd", New: func(t testing.TB, dir string, so serve.Options) frontend.Tier {
	return tier{srv: serve.NewServer(serve.DirLoader(dir), so), modelDir: dir}
}}

func TestAPIPredictStatsHealth(t *testing.T) {
	s := fronttest.Run(t, servd, "PredictStatsHealth")
	var stats api.ServdStats
	s.GetJSON(t, "/v1/stats", &stats)
	if stats.Cache.Len != 1 {
		t.Fatalf("cache %+v, want the one served model resident", stats.Cache)
	}
	// The served forward pass went through the GEMM dispatcher (either path
	// counts, depending on the model's layer sizes), and the active kernel
	// is named.
	if stats.Kernel.GemmCalls+stats.Kernel.NaiveCalls == 0 || stats.Gemm == "" {
		t.Fatalf("kernel counters did not move or kernel unnamed: %+v %q", stats.Kernel, stats.Gemm)
	}
}

func TestAPIErrorMapping(t *testing.T)          { fronttest.Run(t, servd, "ErrorMapping") }
func TestErrorEnvelope(t *testing.T)            { fronttest.Run(t, servd, "ErrorEnvelope") }
func TestErrorEnvelopeQueueFull(t *testing.T)   { fronttest.Run(t, servd, "QueueFull") }
func TestAccessLogRequestID(t *testing.T)       { fronttest.Run(t, servd, "AccessLogRequestID") }
func TestAPITraceRecording(t *testing.T)        { fronttest.Run(t, servd, "TraceRecording") }
func TestAPITenantTier(t *testing.T)            { fronttest.Run(t, servd, "TenantTier") }
func TestAPISurfaceRoutes(t *testing.T)         { fronttest.Run(t, servd, "SurfaceRoutes") }
func TestAPISurfaceErrorEnvelopes(t *testing.T) { fronttest.Run(t, servd, "SurfaceErrorEnvelopes") }
func TestAPISurfaceUnauthorizedEnvelope(t *testing.T) {
	fronttest.Run(t, servd, "SurfaceUnauthorized")
}
func TestAPISurfaceGolden(t *testing.T) {
	fronttest.Run(t, servd, "Golden")
	fronttest.Run(t, servd, "GoldenKeys")
}

func TestMetricsEndpoint(t *testing.T) {
	fronttest.Run(t, servd, "MetricsEndpoint").Metrics(t,
		"drainnas_model_cache_resident 1",
		"drainnas_model_cache_misses_total 1",
		"drainnas_kernel_gemm_calls_total")
}

func TestAPIPredictPrecision(t *testing.T) {
	s := fronttest.Run(t, servd, "PredictPrecision")
	var stats api.ServdStats
	s.GetJSON(t, "/v1/stats", &stats)
	if stats.Cache.Len != 2 {
		t.Fatalf("cache holds %d entries, want the fp32 and int8 forms", stats.Cache.Len)
	}
	if stats.Gemm == "" || stats.QGemm == "" {
		t.Fatalf("kernel names missing from stats: gemm=%q qgemm=%q", stats.Gemm, stats.QGemm)
	}
}

// TestHealthzDegradedOnUnreadableModels: a server whose model directory
// cannot be read answers 404/500 to every predict and must not pass a
// readiness probe by reporting ok with zero models.
func TestHealthzDegradedOnUnreadableModels(t *testing.T) {
	gone := fronttest.Harness{Name: "servd", New: func(t testing.TB, dir string, so serve.Options) frontend.Tier {
		return tier{srv: serve.NewServer(serve.DirLoader(dir), so), modelDir: filepath.Join(dir, "does-not-exist")}
	}}
	s := gone.Start(t, fronttest.Setup{})
	resp, body := fronttest.Do(t, "GET", s.URL+"/v1/healthz", "", nil)
	var health api.HealthResponse
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "degraded" || health.Error == "" {
		t.Fatalf("healthz with unreadable dir -> %d %+v, want 503 degraded", resp.StatusCode, health)
	}
}

// --- binary-level tests -------------------------------------------------

// startServd builds the real binary and boots it over the test models.
func startServd(t *testing.T, race bool, args ...string) *fronttest.Proc {
	t.Helper()
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	dir := t.TempDir()
	fronttest.WriteModels(t, dir)
	return fronttest.StartProc(t, fronttest.Build(t, dir, "servd", race), append([]string{"-models", dir}, args...)...)
}

// TestServdBinarySmoke asserts a well-formed prediction over actual HTTP.
func TestServdBinarySmoke(t *testing.T) {
	p := startServd(t, false)
	resp, body := fronttest.Do(t, "POST", p.URL+"/v1/predict", "", fronttest.PredictBody(t, "tiny", ""))
	var pr api.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("predict -> %d, %v: %s", resp.StatusCode, err, body)
	}
	if n := fronttest.Tiny.NumClasses; len(pr.Logits) != n || pr.Class < 0 || pr.Class >= n {
		t.Fatalf("malformed prediction %+v", pr)
	}
}

// TestServdGracefulShutdown is the acceptance test for the SIGTERM path:
// a request admitted before the signal must still get its 200, and the
// process must exit 0 after draining.
func TestServdGracefulShutdown(t *testing.T) {
	// A large MaxBatch and long MaxDelay hold the request in the batching
	// queue, so SIGTERM provably lands while it is in flight.
	p := startServd(t, false, "-max-batch", "64", "-max-delay", "1s", "-drain", "20s")
	body := fronttest.PredictBody(t, "tiny", "")
	got := make(chan int, 1)
	go func() {
		resp, err := http.Post(p.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			got <- 0
			return
		}
		defer resp.Body.Close()
		var pr api.PredictResponse
		if json.NewDecoder(resp.Body).Decode(&pr) != nil {
			got <- -resp.StatusCode
			return
		}
		got <- resp.StatusCode
	}()

	// Wait until the request is provably admitted, then signal.
	var stats api.ServdStats
	for stats.Serving.Accepted == 0 {
		_, doc := fronttest.Do(t, "GET", p.URL+"/v1/stats", "", nil)
		if err := json.Unmarshal(doc, &stats); err != nil {
			t.Fatal(err)
		}
	}
	p.Term(t)
	if status := <-got; status != http.StatusOK {
		t.Fatalf("in-flight predict across SIGTERM: status %d (0: transport error, <0: undecodable answer)", status)
	}
}

// TestServdMetricsSmoke is the binary-level scrape make obs-smoke runs: no
// traffic, one scrape, full exposition validation.
func TestServdMetricsSmoke(t *testing.T) {
	p := startServd(t, false)
	resp, page := fronttest.Do(t, "GET", p.URL+"/v1/metrics", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if err := metrics.ValidateExposition(bytes.NewReader(page)); err != nil {
		t.Fatalf("live scrape invalid: %v\n%s", err, page)
	}
	for _, want := range []string{
		"drainnas_serving_requests_total",
		"drainnas_serving_latency_seconds_bucket",
		"drainnas_model_cache_capacity",
	} {
		if !bytes.Contains(page, []byte(want)) {
			t.Fatalf("scrape missing %q:\n%s", want, page)
		}
	}
}

// TestServdPprofFlag checks the profile endpoints are reachable only when
// asked for.
func TestServdPprofFlag(t *testing.T) {
	on := startServd(t, false, "-pprof")
	if resp, _ := fronttest.Do(t, "GET", on.URL+"/debug/pprof/cmdline", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with -pprof -> %d", resp.StatusCode)
	}
	off := startServd(t, false)
	if resp, _ := fronttest.Do(t, "GET", off.URL+"/debug/pprof/cmdline", "", nil); resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable without -pprof")
	}
}
