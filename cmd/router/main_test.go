package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	"drainnas/internal/httpx"
	"drainnas/internal/metrics"
	"drainnas/internal/onnxsize"
	"drainnas/internal/resnet"
	"drainnas/internal/route"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

// writeModels exports two small model containers (tiny.dnnx, wide.dnnx)
// into dir so routing tests have mixed-model traffic.
func writeModels(t *testing.T, dir string) resnet.Config {
	t.Helper()
	cfg := resnet.Config{
		Channels: 3, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 4, NumClasses: 2,
	}
	wide := cfg
	wide.InitialOutputFeature = 8
	for name, c := range map[string]resnet.Config{"tiny": cfg, "wide": wide} {
		m, err := resnet.New(c, tensor.NewRNG(11))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := onnxsize.Export(m, &buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".dnnx"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return cfg
}

func predictBody(t *testing.T, model, slo string) []byte {
	t.Helper()
	x := tensor.RandNormal(tensor.NewRNG(5), 1, 3, 16, 16)
	b, err := json.Marshal(api.PredictRequest{Model: model, Shape: []int{3, 16, 16}, Data: x.Data(), SLO: slo})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testFleet builds a router over n real in-process serving replicas sharing
// one ServingStats, mirroring main's wiring.
func testFleet(t *testing.T, dir string, n int, opts route.Options) (*route.Router, *metrics.ServingStats, []*route.LocalReplica) {
	t.Helper()
	serving := &metrics.ServingStats{}
	var (
		reps   []route.Replica
		locals []*route.LocalReplica
	)
	for i := 0; i < n; i++ {
		srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxDelay: time.Millisecond, Stats: serving})
		lr := route.NewLocalReplica(fmt.Sprintf("local-%d", i), srv)
		locals = append(locals, lr)
		reps = append(reps, lr)
	}
	r := route.New(opts, reps...)
	t.Cleanup(func() {
		r.Close()
		for _, lr := range locals {
			lr.Server().Close()
		}
	})
	return r, serving, locals
}

func TestRouterAPIPredictStatsHealth(t *testing.T) {
	dir := t.TempDir()
	writeModels(t, dir)
	router, serving, _ := testFleet(t, dir, 2, route.Options{})
	ts := httptest.NewServer(newAPI(router, serving, dir))
	defer ts.Close()

	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
			bytes.NewReader(predictBody(t, "tiny", "interactive")))
		if err != nil {
			t.Fatal(err)
		}
		var pr api.PredictResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
		if pr.Model != "tiny" || len(pr.Logits) != 2 || pr.TotalMS <= 0 {
			t.Fatalf("malformed prediction %+v", pr)
		}
		if pr.Replica == "" {
			t.Fatalf("prediction without replica attribution: %+v", pr)
		}
		seen[pr.Replica]++
	}
	// Round-robin over two replicas: both served.
	if seen["local-0"] != 2 || seen["local-1"] != 2 {
		t.Fatalf("replica spread %v, want 2 each", seen)
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Router struct {
			Submitted uint64 `json:"submitted"`
			Completed uint64 `json:"completed"`
			PerClass  map[string]struct {
				Completed uint64 `json:"completed"`
			} `json:"per_class"`
			PerReplica map[string]struct {
				Picked uint64 `json:"picked"`
			} `json:"per_replica"`
		} `json:"router"`
		Serving struct {
			Completed uint64 `json:"completed"`
		} `json:"serving"`
		Replicas []string `json:"replicas"`
		Policy   string   `json:"policy"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
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

	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Status   string   `json:"status"`
		Replicas int      `json:"replicas"`
		Models   []string `json:"models"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Replicas != 2 || len(health.Models) != 2 {
		t.Fatalf("health %+v", health)
	}
}

func TestRouterAPIErrorMapping(t *testing.T) {
	dir := t.TempDir()
	writeModels(t, dir)
	router, serving, _ := testFleet(t, dir, 1, route.Options{})
	ts := httptest.NewServer(httpx.AccessLog("router", newAPI(router, serving, dir)))
	defer ts.Close()

	postEnvelope := func(body []byte) (int, api.ErrorEnvelope) {
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
		if env.Error.RequestID == "" || env.Error.RequestID != resp.Header.Get("X-Request-ID") {
			t.Fatalf("envelope request_id %q vs header %q", env.Error.RequestID, resp.Header.Get("X-Request-ID"))
		}
		return resp.StatusCode, env
	}

	if status, env := postEnvelope([]byte("{not json")); status != http.StatusBadRequest || env.Error.Code != "bad_input" {
		t.Fatalf("bad json -> %d %q", status, env.Error.Code)
	}
	bad, _ := json.Marshal(api.PredictRequest{Model: "tiny", Shape: []int{3, 16, 16}, Data: make([]float32, 768), SLO: "turbo"})
	if status, env := postEnvelope(bad); status != http.StatusBadRequest || env.Error.Code != "bad_input" {
		t.Fatalf("unknown slo -> %d %q", status, env.Error.Code)
	}
	if status, env := postEnvelope(predictBody(t, "ghost", "")); status != http.StatusNotFound || env.Error.Code != "model_not_found" {
		t.Fatalf("unknown model -> %d %q", status, env.Error.Code)
	}
	router.Close()
	if status, env := postEnvelope(predictBody(t, "tiny", "")); status != http.StatusServiceUnavailable || env.Error.Code != "shutting_down" {
		t.Fatalf("closed router -> %d %q", status, env.Error.Code)
	}
}

// TestRouterAPIThrottledAndNoReplicas pins the router's two new error codes
// on the wire: token-bucket rejection answers 429/throttled with a
// Retry-After hint, and an empty fleet answers 503/no_replicas.
func TestRouterAPIThrottledAndNoReplicas(t *testing.T) {
	dir := t.TempDir()
	writeModels(t, dir)
	router, serving, _ := testFleet(t, dir, 1, route.Options{Rate: 0.001, Burst: 1})
	ts := httptest.NewServer(newAPI(router, serving, dir))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		bytes.NewReader(predictBody(t, "tiny", "")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("burst predict -> %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/predict", "application/json",
		bytes.NewReader(predictBody(t, "tiny", "")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled predict -> %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "throttled" {
		t.Fatalf("throttle code %q, want throttled", env.Error.Code)
	}

	empty := route.New(route.Options{})
	defer empty.Close()
	ts2 := httptest.NewServer(newAPI(empty, &metrics.ServingStats{}, dir))
	defer ts2.Close()
	resp2, err := http.Post(ts2.URL+"/v1/predict", "application/json",
		bytes.NewReader(predictBody(t, "tiny", "")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-fleet predict -> %d, want 503", resp2.StatusCode)
	}
	var env2 api.ErrorEnvelope
	if err := json.NewDecoder(resp2.Body).Decode(&env2); err != nil {
		t.Fatal(err)
	}
	if env2.Error.Code != "no_replicas" {
		t.Fatalf("empty-fleet code %q, want no_replicas", env2.Error.Code)
	}
}

// TestRouterMetricsEndpoint holds the /v1/metrics page — router counters
// plus the fleet's aggregated serving counters in one exposition — to the
// same validator make obs-smoke uses.
func TestRouterMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	writeModels(t, dir)
	router, serving, _ := testFleet(t, dir, 2, route.Options{})
	ts := httptest.NewServer(newAPI(router, serving, dir))
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
			bytes.NewReader(predictBody(t, "tiny", "batch")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
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
		`drainnas_router_requests_total{outcome="completed"} 3`,
		`drainnas_router_decisions_total{policy="round-robin"} 3`,
		`drainnas_router_class_requests_total{class="batch",outcome="completed"} 3`,
		`drainnas_router_replica_attempts_total{replica="local-0",outcome="picked"}`,
		`drainnas_serving_requests_total{outcome="completed"} 3`,
	} {
		if !bytes.Contains(page, []byte(want)) {
			t.Fatalf("metrics page missing %q:\n%s", want, page)
		}
	}
}

// --- binary-level tests -------------------------------------------------

func buildRouter(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "router")
	build := exec.Command("go", "build", "-o", bin, "drainnas/cmd/router")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

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

func startRouter(t *testing.T, bin string, args ...string) (*exec.Cmd, string, *syncBuffer) {
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
	t.Fatalf("router never reported its listen address; log:\n%s", logs.String())
	return nil, "", nil
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
	t.Fatal("router never became healthy")
}

// TestRouterSmoke is the CI gate (make router-smoke): boot the real binary
// over three in-process replicas, push 200 mixed-model mixed-SLO requests
// through it, require non-zero traffic on every replica, then drain cleanly
// on SIGTERM.
func TestRouterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	writeModels(t, dir)
	bin := buildRouter(t, dir)
	cmd, url, logs := startRouter(t, bin,
		"-models", dir, "-replicas", "3", "-policy", "round-robin",
		"-sched", "priority", "-max-inflight", "16", "-drain", "20s")
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	waitForHealthy(t, url)

	models := []string{"tiny", "wide"}
	slos := []string{"", "interactive", "batch", "standard"}
	for i := 0; i < 200; i++ {
		resp, err := http.Post(url+"/v1/predict", "application/json",
			bytes.NewReader(predictBody(t, models[i%2], slos[i%4])))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		var pr api.PredictResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d err %v", i, resp.StatusCode, err)
		}
		if pr.Replica == "" {
			t.Fatalf("request %d: no replica attribution", i)
		}
	}

	sresp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Router struct {
			Completed  uint64 `json:"completed"`
			PerReplica map[string]struct {
				Picked    uint64 `json:"picked"`
				Completed uint64 `json:"completed"`
			} `json:"per_replica"`
		} `json:"router"`
		Serving struct {
			Completed uint64 `json:"completed"`
		} `json:"serving"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
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

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		killed = true
		if err != nil {
			t.Fatalf("router exited non-zero after SIGTERM: %v\nlog:\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("router never exited after SIGTERM; log:\n%s", logs.String())
	}
	if out := logs.String(); !strings.Contains(out, "drained, exiting") {
		t.Fatalf("no drain log line; log:\n%s", out)
	}
}

// TestRouterBinarySJFSeeding boots the binary with -sched sjf and a
// -predict-device, exercising the plan→cost-graph→latency seeding path end
// to end (a bad device name must fail fast instead).
func TestRouterBinarySJFSeeding(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	dir := t.TempDir()
	writeModels(t, dir)
	bin := buildRouter(t, dir)
	cmd, url, _ := startRouter(t, bin,
		"-models", dir, "-replicas", "2", "-sched", "sjf",
		"-max-inflight", "1", "-predict-device", "cortexA76cpu")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	waitForHealthy(t, url)
	for _, model := range []string{"tiny", "wide"} {
		resp, err := http.Post(url+"/v1/predict", "application/json",
			bytes.NewReader(predictBody(t, model, "")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s predict -> %d", model, resp.StatusCode)
		}
	}

	bad := exec.Command(bin, "-models", dir, "-predict-device", "no-such-device")
	out, err := bad.CombinedOutput()
	if err == nil {
		bad.Process.Kill()
		t.Fatalf("router accepted an unknown predict device:\n%s", out)
	}
}

// TestSeedEstimatesIncludeInt8Keys pins the precision-aware SJF seeding:
// every deployed model gets an estimate in both precisions, with the int8
// form strictly cheaper by the cost scale.
func TestSeedEstimatesIncludeInt8Keys(t *testing.T) {
	dir := t.TempDir()
	writeModels(t, dir)
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
	}
}

// TestRouterServesInt8Precision routes an int8 request across the fleet and
// checks the response attribution carries the precision.
func TestRouterServesInt8Precision(t *testing.T) {
	dir := t.TempDir()
	writeModels(t, dir)
	router, serving, _ := testFleet(t, dir, 2, route.Options{})
	ts := httptest.NewServer(newAPI(router, serving, dir))
	defer ts.Close()

	x := tensor.RandNormal(tensor.NewRNG(5), 1, 3, 16, 16)
	body, err := json.Marshal(api.PredictRequest{
		Model: "tiny", Precision: "int8",
		Shape: []int{3, 16, 16}, Data: x.Data(),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("int8 predict status %d", resp.StatusCode)
	}
	var pr api.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Model != "tiny" || pr.Precision != "int8" || len(pr.Logits) != 2 || pr.Replica == "" {
		t.Fatalf("malformed int8 routed prediction %+v", pr)
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
	router := route.New(route.Options{}, route.NewHTTPReplica("remote-0", servd.URL, nil))
	defer router.Close()
	ts := httptest.NewServer(newAPI(router, &metrics.ServingStats{}, t.TempDir()))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(predictBody(t, "front@int8", "")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr api.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || pr.Model != "front" || pr.Precision != "int8" || pr.Replica != "remote-0" {
		t.Fatalf("status %d, answer %+v; want model front at precision int8 from remote-0", resp.StatusCode, pr)
	}
}
