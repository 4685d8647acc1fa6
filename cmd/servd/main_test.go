package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"

	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/metrics"
	"drainnas/internal/onnxsize"
	"drainnas/internal/resnet"
	"drainnas/internal/serve"
	"drainnas/internal/sim"
	"drainnas/internal/tensor"
)

// writeTinyModel trains nothing — it just builds and exports a minimal
// model container named tiny.dnnx into dir, returning its config.
func writeTinyModel(t *testing.T, dir string) resnet.Config {
	t.Helper()
	cfg := resnet.Config{
		Channels: 3, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 4, NumClasses: 2,
	}
	m, err := resnet.New(cfg, tensor.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := onnxsize.Export(m, &buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tiny.dnnx"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func predictBody(t *testing.T, cfg resnet.Config, model string) []byte {
	t.Helper()
	x := tensor.RandNormal(tensor.NewRNG(5), 1, cfg.Channels, 16, 16)
	req := api.PredictRequest{Model: model, Shape: []int{cfg.Channels, 16, 16}, Data: x.Data()}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAPIPredictStatsHealth(t *testing.T) {
	dir := t.TempDir()
	cfg := writeTinyModel(t, dir)
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxDelay: time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(newAPI(srv, dir))
	defer ts.Close()

	// Well-formed prediction.
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		bytes.NewReader(predictBody(t, cfg, "tiny")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var pr api.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Model != "tiny" || len(pr.Logits) != cfg.NumClasses || pr.Class < 0 || pr.Class >= cfg.NumClasses {
		t.Fatalf("malformed prediction %+v", pr)
	}
	if pr.BatchSize < 1 || pr.TotalMS <= 0 {
		t.Fatalf("missing serving metadata %+v", pr)
	}

	// Stats reflect the served request.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Serving struct {
			Completed uint64 `json:"completed"`
			Latency   struct {
				Count uint64 `json:"count"`
			} `json:"latency"`
			PerModel map[string]struct {
				Completed uint64 `json:"completed"`
			} `json:"per_model"`
		} `json:"serving"`
		Cache struct {
			Len int `json:"len"`
		} `json:"cache"`
		Kernel struct {
			GemmCalls  uint64 `json:"gemm_calls"`
			NaiveCalls uint64 `json:"naive_calls"`
		} `json:"kernel"`
		Gemm string `json:"gemm"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Serving.Completed != 1 || stats.Cache.Len != 1 {
		t.Fatalf("stats %+v", stats)
	}
	// The latency histogram and per-model breakdown ride in the same payload.
	if stats.Serving.Latency.Count != 1 || stats.Serving.PerModel["tiny"].Completed != 1 {
		t.Fatalf("histogram/per-model stats missing: %+v", stats.Serving)
	}
	// The served forward pass must have gone through the GEMM dispatcher
	// (either path counts, depending on the model's layer sizes), and the
	// active kernel name must be reported.
	if stats.Kernel.GemmCalls+stats.Kernel.NaiveCalls == 0 {
		t.Fatalf("kernel counters did not move: %+v", stats.Kernel)
	}
	if stats.Gemm == "" {
		t.Fatal("missing gemm kernel name")
	}

	// Health lists the model.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Status string   `json:"status"`
		Models []string `json:"models"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Models) != 1 || health.Models[0] != "tiny" {
		t.Fatalf("health %+v", health)
	}
}

func TestAPIErrorMapping(t *testing.T) {
	dir := t.TempDir()
	cfg := writeTinyModel(t, dir)
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxDelay: time.Millisecond})
	ts := httptest.NewServer(newAPI(srv, dir))
	defer ts.Close()

	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := post([]byte("{not json")); got != http.StatusBadRequest {
		t.Fatalf("bad json -> %d", got)
	}
	bad := api.PredictRequest{Model: "tiny", Shape: []int{3, 16}, Data: make([]float32, 48)}
	b, _ := json.Marshal(bad)
	if got := post(b); got != http.StatusBadRequest {
		t.Fatalf("bad shape -> %d", got)
	}
	mismatch := api.PredictRequest{Model: "tiny", Shape: []int{3, 16, 16}, Data: make([]float32, 7)}
	b, _ = json.Marshal(mismatch)
	if got := post(b); got != http.StatusBadRequest {
		t.Fatalf("data/shape mismatch -> %d", got)
	}
	if got := post(predictBody(t, cfg, "ghost")); got != http.StatusNotFound {
		t.Fatalf("unknown model -> %d", got)
	}
	if got := post(predictBody(t, cfg, "../escape")); got != http.StatusNotFound {
		t.Fatalf("path traversal -> %d", got)
	}
	srv.Close()
	if got := post(predictBody(t, cfg, "tiny")); got != http.StatusServiceUnavailable {
		t.Fatalf("closed server -> %d", got)
	}
}

// TestErrorEnvelope pins the unified error body: every failure mode answers
// {"error":{"code","message","request_id"}} with a stable machine-readable
// code and the same request ID the X-Request-ID response header carries.
func TestErrorEnvelope(t *testing.T) {
	dir := t.TempDir()
	cfg := writeTinyModel(t, dir)
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxDelay: time.Millisecond})
	ts := httptest.NewServer(withAccessLog(newAPI(srv, dir)))
	defer ts.Close()

	postEnvelope := func(body []byte) (int, http.Header, api.ErrorEnvelope) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env api.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("error body is not the envelope: %v", err)
		}
		if env.Error.Message == "" {
			t.Fatalf("envelope without message: %+v", env)
		}
		if env.Error.RequestID == "" || env.Error.RequestID != resp.Header.Get("X-Request-ID") {
			t.Fatalf("envelope request_id %q vs header %q", env.Error.RequestID, resp.Header.Get("X-Request-ID"))
		}
		return resp.StatusCode, resp.Header, env
	}

	if status, _, env := postEnvelope([]byte("{not json")); status != http.StatusBadRequest || env.Error.Code != "bad_input" {
		t.Fatalf("bad json -> %d %q", status, env.Error.Code)
	}
	if status, _, env := postEnvelope(predictBody(t, cfg, "ghost")); status != http.StatusNotFound || env.Error.Code != "model_not_found" {
		t.Fatalf("unknown model -> %d %q", status, env.Error.Code)
	}
	srv.Close()
	if status, _, env := postEnvelope(predictBody(t, cfg, "tiny")); status != http.StatusServiceUnavailable || env.Error.Code != "shutting_down" {
		t.Fatalf("closed server -> %d %q", status, env.Error.Code)
	}
}

// TestErrorEnvelopeQueueFull fills a capacity-1 queue and checks the
// overflow answer: 429, code queue_full, and a Retry-After hint.
func TestErrorEnvelopeQueueFull(t *testing.T) {
	dir := t.TempDir()
	cfg := writeTinyModel(t, dir)
	// MaxDelay/MaxBatch hold the first request in the queue for the test's
	// lifetime; srv.Close flushes it so the blocked poster below finishes.
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{
		MaxBatch: 64, MaxDelay: time.Minute, QueueCap: 1,
	})
	ts := httptest.NewServer(withAccessLog(newAPI(srv, dir)))
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
			bytes.NewReader(predictBody(t, cfg, "tiny")))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(15 * time.Second)
	for srv.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		bytes.NewReader(predictBody(t, cfg, "tiny")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow -> %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "queue_full" {
		t.Fatalf("overflow code %q, want queue_full", env.Error.Code)
	}
	srv.Close()
	<-done
}

// TestV1Aliases checks the canonical /v1/ paths and their unversioned
// aliases serve identical content.
func TestV1Aliases(t *testing.T) {
	dir := t.TempDir()
	writeTinyModel(t, dir)
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxDelay: time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(newAPI(srv, dir))
	defer ts.Close()

	for _, paths := range [][2]string{
		{"/v1/healthz", "/healthz"},
		{"/v1/metrics", "/metrics"},
	} {
		var bodies [2][]byte
		for i, p := range paths {
			resp, err := http.Get(ts.URL + p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s -> %d", p, resp.StatusCode)
			}
			bodies[i] = b
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("%s and %s disagree:\n%s\n---\n%s", paths[0], paths[1], bodies[0], bodies[1])
		}
	}
}

// TestHealthzDegradedOnUnreadableModels is the regression test for /healthz
// reporting ok when the model directory cannot be read: that server answers
// 404/500 to every predict and must not pass a readiness probe.
func TestHealthzDegradedOnUnreadableModels(t *testing.T) {
	dir := t.TempDir()
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxDelay: time.Millisecond})
	defer srv.Close()
	gone := filepath.Join(dir, "does-not-exist")
	ts := httptest.NewServer(newAPI(srv, gone))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with unreadable dir -> %d, want 503", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Error == "" {
		t.Fatalf("degraded health payload %+v", health)
	}
}

// TestMetricsEndpoint drives the in-process handler and holds the /metrics
// page to the same validator make obs-smoke uses.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := writeTinyModel(t, dir)
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxDelay: time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(newAPI(srv, dir))
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
			bytes.NewReader(predictBody(t, cfg, "tiny")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateExposition(bytes.NewReader(page)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, page)
	}
	for _, want := range []string{
		`drainnas_serving_requests_total{outcome="completed"} 3`,
		"drainnas_serving_latency_seconds_bucket{",
		`drainnas_serving_latency_quantile_seconds{quantile="0.99"}`,
		`drainnas_serving_model_requests_total{model="tiny",outcome="completed"} 3`,
		"drainnas_model_cache_resident 1",
		"drainnas_model_cache_misses_total 1",
		"drainnas_kernel_gemm_calls_total",
	} {
		if !bytes.Contains(page, []byte(want)) {
			t.Fatalf("metrics page missing %q:\n%s", want, page)
		}
	}
}

func TestAccessLogRequestID(t *testing.T) {
	dir := t.TempDir()
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxDelay: time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(withAccessLog(newAPI(srv, dir)))
	defer ts.Close()

	// A fresh ID is minted when the client sends none.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Fatal("no X-Request-ID minted")
	}

	// An incoming ID is honored and echoed, so traces survive proxies.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if id := resp2.Header.Get("X-Request-ID"); id != "trace-me-42" {
		t.Fatalf("incoming request ID not echoed: %q", id)
	}

	// IDs are unique across requests.
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		id := r.Header.Get("X-Request-ID")
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
}

// --- binary-level tests -------------------------------------------------

// buildServd compiles the real binary once per test that needs it.
func buildServd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "servd")
	build := exec.Command("go", "build", "-o", bin, "drainnas/cmd/servd")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// syncBuffer collects a child process's stderr for concurrent inspection.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRe = regexp.MustCompile(`listening on (\S+)`)

// startServd launches the built binary on an ephemeral port and waits for
// its logged listen address. The caller owns shutdown.
func startServd(t *testing.T, bin string, args ...string) (*exec.Cmd, string, *syncBuffer) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	logs := &syncBuffer{}
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if m := addrRe.FindStringSubmatch(logs.String()); m != nil {
			return cmd, "http://" + m[1], logs
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("servd never reported its listen address; log:\n%s", logs.String())
	return nil, "", nil
}

// TestServdBinarySmoke builds the real binary, points it at a tiny exported
// model, and asserts a well-formed prediction over actual HTTP.
func TestServdBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	cfg := writeTinyModel(t, dir)
	bin := buildServd(t, dir)
	cmd, url, _ := startServd(t, bin, "-models", dir)
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	waitForHealthy(t, url)
	resp, err := http.Post(url+"/v1/predict", "application/json",
		bytes.NewReader(predictBody(t, cfg, "tiny")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var pr api.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Logits) != cfg.NumClasses || pr.Class < 0 || pr.Class >= cfg.NumClasses {
		t.Fatalf("malformed prediction %+v", pr)
	}
}

// TestServdGracefulShutdown is the acceptance test for the SIGTERM path:
// a request admitted before the signal must still get its 200, and the
// process must exit 0 after draining (the old log.Fatal(http.Serve(...))
// skipped all of that).
func TestServdGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	dir := t.TempDir()
	cfg := writeTinyModel(t, dir)
	bin := buildServd(t, dir)
	// A large MaxBatch and long MaxDelay hold the request in the batching
	// queue, so SIGTERM provably lands while it is in flight.
	cmd, url, logs := startServd(t, bin, "-models", dir, "-max-batch", "64", "-max-delay", "1s", "-drain", "20s")
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	waitForHealthy(t, url)
	type predictResult struct {
		status int
		err    error
	}
	got := make(chan predictResult, 1)
	go func() {
		resp, err := http.Post(url+"/v1/predict", "application/json",
			bytes.NewReader(predictBody(t, cfg, "tiny")))
		if err != nil {
			got <- predictResult{err: err}
			return
		}
		defer resp.Body.Close()
		var pr api.PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			got <- predictResult{status: resp.StatusCode, err: err}
			return
		}
		got <- predictResult{status: resp.StatusCode}
	}()

	// Wait until the request is provably admitted, then signal.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("request never showed up in /v1/stats")
		}
		resp, err := http.Get(url + "/v1/stats")
		if err == nil {
			var stats struct {
				Serving struct {
					Accepted uint64 `json:"accepted"`
				} `json:"serving"`
			}
			dec := json.NewDecoder(resp.Body)
			decErr := dec.Decode(&stats)
			resp.Body.Close()
			if decErr == nil && stats.Serving.Accepted >= 1 {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case r := <-got:
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("in-flight predict across SIGTERM: status=%d err=%v", r.status, r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight predict never completed after SIGTERM")
	}

	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		killed = true
		if err != nil {
			t.Fatalf("servd exited non-zero after SIGTERM: %v\nlog:\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("servd never exited after SIGTERM; log:\n%s", logs.String())
	}
	if out := logs.String(); !strings.Contains(out, "drained, exiting") {
		t.Fatalf("no drain log line; log:\n%s", out)
	}
}

// TestServdMetricsSmoke is the binary-level scrape make obs-smoke runs: an
// empty model directory, one scrape, and full exposition validation.
func TestServdMetricsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := buildServd(t, dir)
	cmd, url, _ := startServd(t, bin, "-models", dir)
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	waitForHealthy(t, url)
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
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
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := buildServd(t, dir)

	withFlag, urlOn, _ := startServd(t, bin, "-models", dir, "-pprof")
	defer func() {
		withFlag.Process.Kill()
		withFlag.Wait()
	}()
	waitForHealthy(t, urlOn)
	resp, err := http.Get(urlOn + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with -pprof -> %d", resp.StatusCode)
	}

	without, urlOff, _ := startServd(t, bin, "-models", dir)
	defer func() {
		without.Process.Kill()
		without.Wait()
	}()
	waitForHealthy(t, urlOff)
	resp2, err := http.Get(urlOff + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable without -pprof")
	}
}

func waitForHealthy(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("server never became healthy")
}

// TestAPIPredictPrecision exercises the int8 deployment path end to end:
// the precision field and the "@int8" key suffix select the quantized form
// of the same container, the response reports the precision it ran at, and
// /v1/stats names the active int8 kernel.
func TestAPIPredictPrecision(t *testing.T) {
	dir := t.TempDir()
	cfg := writeTinyModel(t, dir)
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxDelay: time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(newAPI(srv, dir))
	defer ts.Close()

	post := func(body []byte) (*http.Response, api.PredictResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr api.PredictResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				t.Fatal(err)
			}
		}
		return resp, pr
	}

	// Precision via the request field.
	x := tensor.RandNormal(tensor.NewRNG(5), 1, cfg.Channels, 16, 16)
	body, err := json.Marshal(api.PredictRequest{
		Model: "tiny", Precision: "int8",
		Shape: []int{cfg.Channels, 16, 16}, Data: x.Data(),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, pr := post(body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("int8 predict status %d", resp.StatusCode)
	}
	if pr.Model != "tiny" || pr.Precision != "int8" || len(pr.Logits) != cfg.NumClasses {
		t.Fatalf("malformed int8 prediction %+v", pr)
	}

	// The same selection via the key suffix.
	resp, pr = post(predictBody(t, cfg, "tiny@int8"))
	if resp.StatusCode != http.StatusOK || pr.Precision != "int8" || pr.Model != "tiny" {
		t.Fatalf("suffixed int8 predict: status %d, %+v", resp.StatusCode, pr)
	}

	// An fp32 request reports its precision too.
	resp, pr = post(predictBody(t, cfg, "tiny"))
	if resp.StatusCode != http.StatusOK || pr.Precision != "fp32" {
		t.Fatalf("fp32 predict: status %d, %+v", resp.StatusCode, pr)
	}

	// Conflicting selectors are a client error.
	body, err = json.Marshal(api.PredictRequest{
		Model: "tiny@int8", Precision: "fp32",
		Shape: []int{cfg.Channels, 16, 16}, Data: x.Data(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := post(body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("conflicting precision status %d, want 400", resp.StatusCode)
	}

	// Stats carry both kernel names and the cache holds both forms.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Cache struct {
			Len int `json:"len"`
		} `json:"cache"`
		Gemm  string `json:"gemm"`
		QGemm string `json:"qgemm"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Len != 2 {
		t.Fatalf("cache holds %d entries, want the fp32 and int8 forms", stats.Cache.Len)
	}
	if stats.Gemm == "" || stats.QGemm == "" {
		t.Fatalf("kernel names missing from stats: gemm=%q qgemm=%q", stats.Gemm, stats.QGemm)
	}
}

// TestAPITraceRecording checks the -trace path: every predict that resolves
// to a serving key is recorded — including precision-suffixed keys and
// requests that later fail (offered load, not served load) — and the file
// replays into simulator arrivals.
func TestAPITraceRecording(t *testing.T) {
	dir := t.TempDir()
	cfg := writeTinyModel(t, dir)
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxDelay: time.Millisecond})
	defer srv.Close()

	var buf bytes.Buffer
	rec := sim.NewTraceWriter(&buf)
	ts := httptest.NewServer(newAPIWithTrace(srv, dir, rec))
	defer ts.Close()

	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	if st := post(predictBody(t, cfg, "tiny")); st != http.StatusOK {
		t.Fatalf("fp32 predict status %d", st)
	}
	if st := post(predictBody(t, cfg, "tiny@int8")); st != http.StatusOK {
		t.Fatalf("int8 predict status %d", st)
	}
	// A missing model still resolves to a key, so it is offered load and
	// must be recorded even though serving 404s.
	if st := post(predictBody(t, cfg, "ghost")); st != http.StatusNotFound {
		t.Fatalf("ghost predict status %d, want 404", st)
	}
	// A malformed body never reaches key resolution: not recorded.
	if st := post([]byte("{nope")); st != http.StatusBadRequest {
		t.Fatalf("malformed predict status %d, want 400", st)
	}

	if err := rec.Close(); err != nil {
		t.Fatalf("closing trace: %v", err)
	}
	events, err := sim.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("reading recorded trace: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("recorded %d events, want 3", len(events))
	}
	wantModels := []string{"tiny", "tiny@int8", "ghost"}
	for i, ev := range events {
		if ev.Model != wantModels[i] {
			t.Fatalf("event %d model %q, want %q", i, ev.Model, wantModels[i])
		}
		if ev.C != cfg.Channels || ev.H != 16 || ev.W != 16 {
			t.Fatalf("event %d shape %dx%dx%d, want %dx16x16", i, ev.C, ev.H, ev.W, cfg.Channels)
		}
	}
	if arr, err := sim.TraceArrivals(events); err != nil || len(arr) != 3 {
		t.Fatalf("recorded trace does not replay: %v (%d arrivals)", err, len(arr))
	}
}
