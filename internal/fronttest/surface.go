package fronttest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/frontend"
	"drainnas/internal/metrics"
	"drainnas/internal/serve"
	"drainnas/internal/sim"
	"drainnas/internal/tenant"
)

// Harness is a binary's side of the surface table: how to build its tier.
type Harness struct {
	// Name is the api.Route tier name, and the golden files' prefix.
	Name string
	// New builds the tier over the models in dir, every serving core
	// configured by so. The table closes it.
	New func(t testing.TB, dir string, so serve.Options) frontend.Tier
}

// Setup is what a group of rows needs of its stack beyond the defaults.
type Setup struct {
	Serve serve.Options
	// Keys mounts the tenant tier over Keys' tenants, two fair slots.
	Keys bool
	// Trace records arrivals into Stack.Trace.
	Trace bool
}

// The key file of every Keys stack: acme is unlimited, capped's bucket
// holds one request.
const (
	AcmeKey   = "acme-secret-key"
	CappedKey = "capped-secret-key"
	keyFile   = `{"tenants": [
		{"name": "acme", "key": "` + AcmeKey + `", "weight": 2},
		{"name": "capped", "key": "` + CappedKey + `", "rate_rps": 0.001, "burst": 1}
	]}`
)

// Stack is one tier behind frontend.New on a loopback listener.
type Stack struct {
	// Name is the Harness's.
	Name string
	Tier frontend.Tier
	URL  string
	Dir  string
	// Key is AcmeKey on a Keys stack, empty on an open one.
	Key      string
	Trace    *sim.TraceWriter
	traceBuf bytes.Buffer
}

// Start writes the models, builds the tier and mounts it.
func (h Harness) Start(t testing.TB, su Setup) *Stack {
	t.Helper()
	s := &Stack{Name: h.Name, Dir: t.TempDir()}
	WriteModels(t, s.Dir)
	if su.Serve.MaxDelay == 0 {
		su.Serve.MaxDelay = time.Millisecond
	}
	cfg := frontend.Config{DashboardInterval: 20 * time.Millisecond}
	if su.Keys {
		path := filepath.Join(s.Dir, "keys.json")
		if err := os.WriteFile(path, []byte(keyFile), 0o600); err != nil {
			t.Fatal(err)
		}
		edge, err := tenant.LoadTier(path, time.Minute, 2, h.Name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Edge, s.Key = edge, AcmeKey
	}
	if su.Trace {
		s.Trace = sim.NewTraceWriter(&s.traceBuf)
		cfg.Trace = s.Trace
	}
	s.Tier = h.New(t, s.Dir, su.Serve)
	ts := httptest.NewServer(frontend.New(s.Tier, cfg))
	s.URL = ts.URL
	t.Cleanup(func() {
		ts.Close()
		s.Tier.Close()
	})
	return s
}

// Do issues one request, with key as the Bearer credential when set, and
// returns the response with its body read.
func Do(t testing.TB, method, url, key string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

// Predict posts body under key and decodes a 200's answer.
func (s *Stack) Predict(t testing.TB, key string, body []byte) (*http.Response, api.PredictResponse) {
	t.Helper()
	resp, got := Do(t, "POST", s.URL+"/v1/predict", key, body)
	var pr api.PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(got, &pr); err != nil {
			t.Fatalf("predict answer: %v\n%s", err, got)
		}
	}
	return resp, pr
}

// MustPredict is Predict for a request that has to succeed.
func (s *Stack) MustPredict(t testing.TB, model, slo string) api.PredictResponse {
	t.Helper()
	resp, pr := s.Predict(t, s.Key, PredictBody(t, model, slo))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict %s -> %d", model, resp.StatusCode)
	}
	return pr
}

// GetJSON decodes a 200 answer of GET path into v.
func (s *Stack) GetJSON(t testing.TB, path string, v any) {
	t.Helper()
	resp, body := Do(t, "GET", s.URL+path, s.Key, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s -> %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: %v\n%s", path, err, body)
	}
}

// Metrics scrapes /v1/metrics, holds the page to the exposition validator
// and requires every want on it.
func (s *Stack) Metrics(t testing.TB, wants ...string) {
	t.Helper()
	resp, page := Do(t, "GET", s.URL+"/v1/metrics", s.Key, nil)
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK ||
		!strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics -> %d, content type %q", resp.StatusCode, ct)
	}
	if err := metrics.ValidateExposition(bytes.NewReader(page)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, page)
	}
	for _, want := range wants {
		if !bytes.Contains(page, []byte(want)) {
			t.Errorf("metrics page missing %q:\n%s", want, page)
		}
	}
}

// servingStats is the part of /v1/stats both tiers' documents share.
type servingStats struct {
	Serving struct {
		Accepted  uint64 `json:"accepted"`
		Completed uint64 `json:"completed"`
		Latency   struct {
			Count uint64 `json:"count"`
		} `json:"latency"`
		PerModel map[string]struct {
			Completed uint64 `json:"completed"`
		} `json:"per_model"`
	} `json:"serving"`
	Tenant *struct {
		PerTenant map[string]struct {
			Admitted      uint64 `json:"admitted"`
			QuotaExceeded uint64 `json:"quota_exceeded"`
		} `json:"per_tenant"`
	} `json:"tenant"`
	Fair *api.FairStats `json:"fair"`
}

// Envelope pins an error answer against internal/api: the body is exactly
// {"error": {code, message, request_id}}, the request ID is the one the
// X-Request-ID header carries, the code is want, the status is the one
// api.KnownCodes pins for it, and a 429 says when to retry.
func Envelope(t testing.TB, resp *http.Response, body []byte, want string) {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil || len(top) != 1 || top["error"] == nil {
		t.Fatalf("body is not exactly {\"error\": ...} (%v): %s", err, body)
	}
	var fields map[string]string
	if err := json.Unmarshal(top["error"], &fields); err != nil {
		t.Fatalf("error body: %v: %s", err, body)
	}
	for k := range fields {
		if k != "code" && k != "message" && k != "request_id" {
			t.Errorf("unexpected error field %q", k)
		}
	}
	if fields["message"] == "" {
		t.Error("empty error.message")
	}
	if id := fields["request_id"]; id == "" || id != resp.Header.Get("X-Request-ID") {
		t.Errorf("envelope request_id %q vs header %q", id, resp.Header.Get("X-Request-ID"))
	}
	code := fields["code"]
	status, known := api.KnownCodes[code]
	if !known {
		t.Fatalf("code %q not in api.KnownCodes", code)
	}
	if resp.StatusCode != status {
		t.Errorf("status %d, but api.KnownCodes pins %q to %d", resp.StatusCode, code, status)
	}
	if code != want {
		t.Errorf("code %q, want %q", code, want)
	}
	if status == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// Row is one assertion about the surface. The rows of a group run in order
// against one stack.
type Row struct {
	Name string
	Run  func(t *testing.T, s *Stack)
}

// Group is the unit the binaries' tests run by name.
type Group struct {
	Name  string
	Setup Setup
	Rows  []Row
}

// expect sends one request under the stack's key and pins the refusal.
func expect(t testing.TB, s *Stack, method, path, body, code string) {
	t.Helper()
	resp, got := Do(t, method, s.URL+path, s.Key, []byte(body))
	Envelope(t, resp, got, code)
}

// answers is the row "this request is refused with this code".
func answers(name, method, path, body, code string) Row {
	return Row{name, func(t *testing.T, s *Stack) { expect(t, s, method, path, body, code) }}
}

// refuses is answers for a predict body built from a request struct.
func refuses(name string, req api.PredictRequest, code string) Row {
	return Row{name, func(t *testing.T, s *Stack) { expect(t, s, "POST", "/v1/predict", predictJSON(t, req), code) }}
}

const scanStart = `{"model":"wet","region":"Nebraska","tile_size":64,"chip_size":16`

// Table is the /v1/ surface both tiers are held to. Rows that name a
// tier-only code or field (throttled, no_replicas, replica, hedged,
// degraded health) live beside that tier's Harness instead.
var Table = []Group{
	{Name: "PredictStatsHealth", Rows: []Row{
		{"predict answers a well-formed prediction", func(t *testing.T, s *Stack) {
			pr := s.MustPredict(t, "tiny", "interactive")
			if pr.Model != "tiny" || pr.Precision != "fp32" || len(pr.Logits) != Tiny.NumClasses || pr.Class < 0 || pr.Class >= Tiny.NumClasses {
				t.Fatalf("malformed prediction %+v", pr)
			}
			if pr.BatchSize < 1 || pr.TotalMS <= 0 {
				t.Fatalf("missing serving metadata %+v", pr)
			}
		}},
		{"stats count it, with its latency and per-model breakdown", func(t *testing.T, s *Stack) {
			var st servingStats
			s.GetJSON(t, "/v1/stats", &st)
			if st.Serving.Completed != 1 || st.Serving.Latency.Count != 1 || st.Serving.PerModel["tiny"].Completed != 1 {
				t.Fatalf("stats %+v", st.Serving)
			}
		}},
		{"healthz lists the models", func(t *testing.T, s *Stack) {
			var h api.HealthResponse
			s.GetJSON(t, "/v1/healthz", &h)
			if h.Status != "ok" || !reflect.DeepEqual(h.Models, []string{"tiny", "wet", "wide"}) {
				t.Fatalf("health %+v", h)
			}
		}},
	}},

	{Name: "ErrorMapping", Rows: []Row{
		refuses("bad shape", api.PredictRequest{Model: "tiny", Shape: []int{3, 16}, Data: make([]float32, 48)}, api.CodeBadInput),
		refuses("data/shape mismatch", api.PredictRequest{Model: "tiny", Shape: []int{3, 16, 16}, Data: make([]float32, 7)}, api.CodeBadInput),
		refuses("path traversal", Chip("../escape", "", ""), api.CodeModelNotFound),
	}},

	{Name: "ErrorEnvelope", Rows: []Row{
		answers("bad json", "POST", "/v1/predict", "{not json", api.CodeBadInput),
		refuses("unknown model", Chip("ghost", "", ""), api.CodeModelNotFound),
		{"closed tier", func(t *testing.T, s *Stack) {
			s.Tier.Close()
			expect(t, s, "POST", "/v1/predict", predictJSON(t, Chip("tiny", "", "")), api.CodeShuttingDown)
		}},
	}},

	// One slot in a queue that holds what it admits for a minute. A predict
	// is cut at once on an idle server, so what fills the slot is a scan's
	// second tile: it says more of its batch is on the way, and waits.
	{Name: "QueueFull", Setup: Setup{Serve: serve.Options{MaxBatch: 64, MaxDelay: time.Minute, QueueCap: 1}}, Rows: []Row{
		{"overflow answers queue_full with Retry-After", func(t *testing.T, s *Stack) {
			resp, body := Do(t, "POST", s.URL+"/v1/scan", "",
				[]byte(`{"model":"wet","region":"Nebraska","tile_size":32,"chip_size":16,"seed":7,"window":2}`))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("scan start -> %d: %s", resp.StatusCode, body)
			}
			var job api.ScanJob
			if err := json.Unmarshal(body, &job); err != nil {
				t.Fatal(err)
			}
			defer Do(t, "DELETE", s.URL+"/v1/scan/"+job.ID, "", nil)
			// Tile 0 was answered and one later tile holds the only slot.
			var st servingStats
			for deadline := time.Now().Add(15 * time.Second); st.Serving.Accepted != 2 || st.Serving.Completed != 1; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("no scan tile queued: %+v", st.Serving)
				}
				s.GetJSON(t, "/v1/stats", &st)
			}
			expect(t, s, "POST", "/v1/predict", string(PredictBody(t, "tiny", "")), api.CodeQueueFull)
		}},
	}},

	{Name: "SurfaceRoutes", Rows: []Row{
		// A path drifting out of frontend.New would come back as ServeMux's
		// plain-text 404/405 instead of a handler's answer.
		{"every registered route is mounted", func(t *testing.T, s *Stack) {
			for _, rt := range api.RoutesFor(s.Name) {
				body := ""
				if rt.Method == http.MethodPost {
					body = "{}"
				}
				// The dashboard streams never end on their own.
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				req, err := http.NewRequestWithContext(ctx, rt.Method, s.URL+strings.ReplaceAll(rt.Path, "{id}", "scan-surface-0"), strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatalf("%s %s: %v", rt.Method, rt.Path, err)
				}
				if resp.StatusCode == http.StatusNotFound && strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
					t.Errorf("%s %s: not mounted (mux 404)", rt.Method, rt.Path)
				}
				if resp.StatusCode == http.StatusMethodNotAllowed {
					t.Errorf("%s %s: method not allowed — registry and mux disagree", rt.Method, rt.Path)
				}
				cancel()
				resp.Body.Close()
			}
		}},
		{"the bare /metrics and /healthz aliases are gone", func(t *testing.T, s *Stack) {
			for _, path := range []string{"/metrics", "/healthz"} {
				resp, _ := Do(t, "GET", s.URL+path, "", nil)
				if resp.StatusCode != http.StatusNotFound || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
					t.Errorf("GET %s -> %d %s, want ServeMux's 404", path, resp.StatusCode, resp.Header.Get("Content-Type"))
				}
			}
		}},
		{"the WebSocket dashboard route is gone", func(t *testing.T, s *Stack) {
			resp, _ := Do(t, "GET", s.URL+"/v1/dashboard/ws", "", nil)
			if resp.StatusCode != http.StatusNotFound || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
				t.Errorf("GET /v1/dashboard/ws -> %d %s, want ServeMux's 404", resp.StatusCode, resp.Header.Get("Content-Type"))
			}
		}},
	}},

	{Name: "SurfaceErrorEnvelopes", Rows: []Row{
		refuses("predict bad slo", Chip("tiny", "warp-speed", ""), api.CodeBadInput),
		answers("scan start garbage body", "POST", "/v1/scan", "not json", api.CodeBadInput),
		answers("scan start unknown region", "POST", "/v1/scan", strings.Replace(scanStart, "Nebraska", "Atlantis", 1)+"}", api.CodeBadInput),
		answers("scan start bad slo", "POST", "/v1/scan", scanStart+`,"slo":"warp-speed"}`, api.CodeBadInput),
		answers("scan status unknown id", "GET", "/v1/scan/scan-404", "", api.CodeScanNotFound),
		answers("scan cancel unknown id", "DELETE", "/v1/scan/scan-404", "", api.CodeScanNotFound),
		answers("scan events unknown id", "GET", "/v1/scan/scan-404/events", "", api.CodeScanNotFound),
	}},

	{Name: "SurfaceUnauthorized", Setup: Setup{Keys: true}, Rows: []Row{
		{"every keyed route refuses a request without a key", func(t *testing.T, s *Stack) {
			for _, rq := range [][3]string{{"POST", "/v1/predict", "{}"}, {"POST", "/v1/scan", "{}"}, {"GET", "/v1/scan/scan-404", ""}} {
				resp, got := Do(t, rq[0], s.URL+rq[1], "", []byte(rq[2]))
				Envelope(t, resp, got, api.CodeUnauthorized)
			}
		}},
	}},

	{Name: "MetricsEndpoint", Rows: []Row{
		{"the page validates and counts three predicts", func(t *testing.T, s *Stack) {
			for i := 0; i < 3; i++ {
				s.MustPredict(t, "tiny", "batch")
			}
			s.Metrics(t,
				`drainnas_serving_requests_total{outcome="completed"} 3`,
				"drainnas_serving_latency_seconds_bucket{",
				`drainnas_serving_latency_quantile_seconds{quantile="0.99"}`,
				`drainnas_serving_model_requests_total{model="tiny",outcome="completed"} 3`)
		}},
	}},

	{Name: "AccessLogRequestID", Rows: []Row{
		{"an ID is minted, unique per request", func(t *testing.T, s *Stack) {
			seen := map[string]bool{}
			for i := 0; i < 5; i++ {
				resp, _ := Do(t, "GET", s.URL+"/v1/healthz", "", nil)
				id := resp.Header.Get("X-Request-ID")
				if id == "" || seen[id] {
					t.Fatalf("request ID %q: empty or a duplicate", id)
				}
				seen[id] = true
			}
		}},
		// So traces survive proxies.
		{"an incoming ID is honored and echoed", func(t *testing.T, s *Stack) {
			req, _ := http.NewRequest("GET", s.URL+"/v1/healthz", nil)
			req.Header.Set("X-Request-ID", "trace-me-42")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if id := resp.Header.Get("X-Request-ID"); id != "trace-me-42" {
				t.Fatalf("incoming request ID not echoed: %q", id)
			}
		}},
	}},

	// The int8 deployment path: the precision field and the "@int8" key
	// suffix select the quantized form of the same container, and the
	// answer reports the precision it ran at.
	{Name: "PredictPrecision", Rows: []Row{
		{"precision via the request field", func(t *testing.T, s *Stack) {
			req := Chip("tiny", "", "")
			req.Precision = "int8"
			resp, pr := s.Predict(t, "", []byte(predictJSON(t, req)))
			if resp.StatusCode != http.StatusOK || pr.Model != "tiny" || pr.Precision != "int8" || len(pr.Logits) != Tiny.NumClasses {
				t.Fatalf("int8 predict: status %d, %+v", resp.StatusCode, pr)
			}
		}},
		{"precision via the key suffix", func(t *testing.T, s *Stack) {
			if pr := s.MustPredict(t, "tiny@int8", ""); pr.Precision != "int8" || pr.Model != "tiny" {
				t.Fatalf("suffixed int8 predict: %+v", pr)
			}
		}},
		{"fp32 reports its precision too", func(t *testing.T, s *Stack) {
			if pr := s.MustPredict(t, "tiny", ""); pr.Precision != "fp32" {
				t.Fatalf("fp32 predict: %+v", pr)
			}
		}},
		refuses("conflicting selectors", Chip("tiny@int8", "", "fp32"), api.CodeBadInput),
	}},

	// The trace is offered load: every predict that reaches admission is
	// recorded, whatever the tier then answers, and nothing else is.
	{Name: "TraceRecording", Setup: Setup{Trace: true}, Rows: []Row{
		{"recorded arrivals are the requests that reached admission", func(t *testing.T, s *Stack) {
			s.MustPredict(t, "tiny", "")
			s.MustPredict(t, "tiny@int8", "batch")
			expect(t, s, "POST", "/v1/predict", predictJSON(t, Chip("ghost", "", "")), api.CodeModelNotFound)
			expect(t, s, "POST", "/v1/predict", "{nope", api.CodeBadInput)
			// An arrival the trace format cannot hold must not be admitted.
			expect(t, s, "POST", "/v1/predict", predictJSON(t, Chip("tiny", "turbo", "")), api.CodeBadInput)

			if err := s.Trace.Close(); err != nil {
				t.Fatalf("closing trace: %v", err)
			}
			events, err := sim.ReadTrace(&s.traceBuf)
			if err != nil {
				t.Fatalf("reading recorded trace: %v", err)
			}
			var st servingStats
			s.GetJSON(t, "/v1/stats", &st)
			if len(events) != 3 || uint64(len(events)) != st.Serving.Accepted {
				t.Fatalf("recorded %d events, tier admitted %d, want 3 and 3", len(events), st.Serving.Accepted)
			}
			for i, model := range []string{"tiny", "tiny@int8", "ghost"} {
				if ev := events[i]; ev.Model != model || ev.C != 3 || ev.H != 16 || ev.W != 16 {
					t.Fatalf("event %d = %+v, want %s at 3x16x16", i, ev, model)
				}
			}
			if arr, err := sim.TraceArrivals(events); err != nil || len(arr) != 3 {
				t.Fatalf("recorded trace does not replay: %v (%d arrivals)", err, len(arr))
			}
		}},
	}},

	{Name: "TenantTier", Setup: Setup{Keys: true}, Rows: []Row{
		{"no key and a wrong key never reach the tier", func(t *testing.T, s *Stack) {
			for _, key := range []string{"", "not-a-real-key"} {
				resp, got := Do(t, "POST", s.URL+"/v1/predict", key, PredictBody(t, "tiny", "interactive"))
				Envelope(t, resp, got, api.CodeUnauthorized)
			}
		}},
		{"an authenticated predict is served", func(t *testing.T, s *Stack) {
			if pr := s.MustPredict(t, "tiny", "interactive"); pr.Model != "tiny" {
				t.Fatalf("predict answer %+v", pr)
			}
		}},
		{"a dry bucket answers quota_exceeded", func(t *testing.T, s *Stack) {
			if resp, _ := s.Predict(t, CappedKey, PredictBody(t, "tiny", "")); resp.StatusCode != http.StatusOK {
				t.Fatalf("capped tenant's first request -> %d", resp.StatusCode)
			}
			resp, got := Do(t, "POST", s.URL+"/v1/predict", CappedKey, PredictBody(t, "tiny", ""))
			Envelope(t, resp, got, api.CodeQuotaExceeded)
		}},
		{"stats grow the tenant and fair sections", func(t *testing.T, s *Stack) {
			var st servingStats
			s.GetJSON(t, "/v1/stats", &st)
			if st.Tenant == nil || st.Fair == nil || st.Fair.Capacity != 2 {
				t.Fatalf("tenant %v / fair %v sections", st.Tenant, st.Fair)
			}
			if pt := st.Tenant.PerTenant; pt["acme"].Admitted != 1 || pt["capped"].QuotaExceeded != 1 {
				t.Fatalf("tenant stats %+v", pt)
			}
		}},
		{"metrics grow the tenant families", func(t *testing.T, s *Stack) {
			s.Metrics(t, "drainnas_tenant_unauthorized_total 2",
				`drainnas_tenant_requests_total{tenant="capped",outcome="quota_exceeded"} 1`)
		}},
		{"the dashboard is key-gated and streams", func(t *testing.T, s *Stack) {
			resp, got := Do(t, "GET", s.URL+"/v1/dashboard/events", "", nil)
			Envelope(t, resp, got, api.CodeUnauthorized)
			// The stream never ends; one byte proves it started.
			live, err := http.Get(s.URL + "/v1/dashboard/events?key=" + AcmeKey)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Body.Close()
			if _, err := live.Body.Read(make([]byte, 1)); live.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("dashboard sse -> %d, first read: %v", live.StatusCode, err)
			}
		}},
	}},

	// The stats and metrics shapes captured before servd's and the
	// router's mux assemblies were merged, open and behind the tenant tier.
	{Name: "Golden", Rows: []Row{{"open", golden}}},
	{Name: "GoldenKeys", Setup: Setup{Keys: true}, Rows: []Row{{"behind the tenant tier", golden}}},
}

func golden(t *testing.T, s *Stack) {
	name := s.Name
	if s.Key != "" {
		name += "_keys"
	}
	stats, families := Shapes(t, s.URL, s.Key)
	Golden(t, name+"_stats.golden", stats)
	Golden(t, name+"_metrics.golden", families)
}

// Run runs the named group's rows against a fresh stack of h and returns
// the stack, so a tier's test can go on to assert what only it answers.
func Run(t *testing.T, h Harness, group string) *Stack {
	t.Helper()
	for _, g := range Table {
		if g.Name != group {
			continue
		}
		s := h.Start(t, g.Setup)
		for _, row := range g.Rows {
			t.Run(row.Name, func(t *testing.T) { row.Run(t, s) })
		}
		return s
	}
	t.Fatalf("no group %q in the surface table", group)
	return nil
}
