package tenant

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/httpx"
	"drainnas/internal/metrics"
	"drainnas/internal/route/routetest"
)

const quotaTenants = `{"tenants": [
	{"name": "limited", "key": "limited-secret", "rate_rps": 1, "burst": 2},
	{"name": "open", "key": "open-secret-key"}
]}`

func newTestTier(t *testing.T, clock *routetest.FakeClock, inflight int) (*Tier, *metrics.TenantStats) {
	t.Helper()
	path := writeKeyFile(t, t.TempDir(), quotaTenants)
	auth, err := LoadAuthenticator(path, time.Minute, clock)
	if err != nil {
		t.Fatal(err)
	}
	stats := &metrics.TenantStats{}
	return NewTier(TierOptions{Auth: auth, Inflight: inflight, Stats: stats, Clock: clock, Service: "test"}), stats
}

func decodeError(t *testing.T, body io.Reader) api.ErrorBody {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return env.Error
}

func TestTierRejectsUnauthenticated(t *testing.T) {
	tier, stats := newTestTier(t, routetest.NewFakeClock(), 0)
	inner := 0
	h := tier.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { inner++ }))

	for _, set := range []func(*http.Request){
		func(r *http.Request) {},
		func(r *http.Request) { r.Header.Set("X-API-Key", "wrong-key-entirely") },
		func(r *http.Request) { r.Header.Set("Authorization", "Bearer nope-nope-nope") },
		func(r *http.Request) { r.Header.Set("Authorization", "Basic bm9wZQ==") },
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader("{}"))
		set(req)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusUnauthorized {
			t.Fatalf("status %d, want 401", rr.Code)
		}
		if e := decodeError(t, rr.Body); e.Code != api.CodeUnauthorized {
			t.Fatalf("code %q, want %q", e.Code, api.CodeUnauthorized)
		}
	}
	if inner != 0 {
		t.Fatalf("inner handler ran %d times behind a failed auth", inner)
	}
	if got := stats.Snapshot().Unauthorized; got != 4 {
		t.Fatalf("unauthorized count %d, want 4", got)
	}
}

func TestTierEnforcesQuota(t *testing.T) {
	clock := routetest.NewFakeClock()
	tier, stats := newTestTier(t, clock, 0)
	h := tier.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))

	do := func(key string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader("{}"))
		req.Header.Set("Authorization", "Bearer "+key)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}

	// Burst of 2, then the bucket is dry.
	for i := 0; i < 2; i++ {
		if rr := do("limited-secret"); rr.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, rr.Code)
		}
	}
	rr := do("limited-secret")
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", rr.Code)
	}
	if e := decodeError(t, rr.Body); e.Code != api.CodeQuotaExceeded {
		t.Fatalf("code %q, want %q", e.Code, api.CodeQuotaExceeded)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The unlimited tenant is unaffected by the noisy one's dry bucket.
	if rr := do("open-secret-key"); rr.Code != http.StatusOK {
		t.Fatalf("open tenant status %d, want 200", rr.Code)
	}

	// Refill at 1 rps: one second buys exactly one more admit.
	clock.Advance(time.Second)
	if rr := do("limited-secret"); rr.Code != http.StatusOK {
		t.Fatalf("post-refill status %d, want 200", rr.Code)
	}
	if rr := do("limited-secret"); rr.Code != http.StatusTooManyRequests {
		t.Fatalf("second post-refill status %d, want 429", rr.Code)
	}

	snap := stats.Snapshot()
	lim := snap.PerTenant["limited"]
	if lim.Admitted != 3 || lim.QuotaExceeded != 2 || lim.Completed != 3 {
		t.Fatalf("limited counters %+v", lim)
	}
	if open := snap.PerTenant["open"]; open.Admitted != 1 {
		t.Fatalf("open counters %+v", open)
	}
}

// TestTierAuditLog: one structured audit line per request, for denials and
// admits alike.
func TestTierAuditLog(t *testing.T) {
	var buf syncLogBuffer
	log.SetOutput(&buf)
	defer log.SetOutput(io.Discard)

	tier, _ := newTestTier(t, routetest.NewFakeClock(), 0)
	h := tier.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))

	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader("{}"))
	req.Header.Set("X-API-Key", "open-secret-key")
	h.ServeHTTP(httptest.NewRecorder(), req)

	req = httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader("{}"))
	h.ServeHTTP(httptest.NewRecorder(), req)

	out := buf.String()
	if !strings.Contains(out, "audit") ||
		!strings.Contains(out, "tenant=open decision=admit") ||
		!strings.Contains(out, "status=200") {
		t.Fatalf("missing admit audit line:\n%s", out)
	}
	if !strings.Contains(out, "tenant=- decision=deny_auth") {
		t.Fatalf("missing deny audit line:\n%s", out)
	}
}

type syncLogBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncLogBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncLogBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTierPreservesBody: reading the SLO class must not consume the body
// the inner handler parses.
func TestTierPreservesBody(t *testing.T) {
	tier, _ := newTestTier(t, routetest.NewFakeClock(), 2)
	body := `{"model": "m", "slo": "interactive", "input": [1, 2, 3]}`
	var got string
	h := tier.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		got = string(b)
		if tn, ok := FromContext(r.Context()); !ok || tn.Name != "open" {
			t.Errorf("tenant missing from context: %+v %v", tn, ok)
		}
	}))
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set("X-API-Key", "open-secret-key")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if got != body {
		t.Fatalf("inner handler saw %q, want the original body", got)
	}
}

func TestTierRecordsFailures(t *testing.T) {
	tier, stats := newTestTier(t, routetest.NewFakeClock(), 1)
	h := tier.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpx.Error(w, http.StatusBadRequest, api.CodeBadInput, "nope")
	}))
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader("{}"))
	req.Header.Set("X-API-Key", "open-secret-key")
	h.ServeHTTP(httptest.NewRecorder(), req)

	snap := stats.Snapshot().PerTenant["open"]
	if snap.Failed != 1 || snap.Completed != 0 {
		t.Fatalf("counters %+v, want 1 failed", snap)
	}
	// The fair gate's slot was released.
	if tier.Fair().Stats().InUse != 0 {
		t.Fatalf("slot leaked: %d in use", tier.Fair().Stats().InUse)
	}
}

// TestRequestClass: the class comes out of the body api.ReadPredict
// decodes, anything else queues as standard, and the body is handed on
// byte for byte whether or not it decoded.
func TestRequestClass(t *testing.T) {
	cases := []struct {
		body string
		want string
	}{
		{`{"slo": "interactive"}`, "interactive"},
		{`{"slo": "batch"}`, "batch"},
		{`{"slo": "standard"}`, "standard"},
		{`{"model":"m","slo":"batch","shape":[1,1,1],"data_b64":"AACAPw=="}`, "batch"},
		{`{"SLO": "inter\u0061ctive"}`, "interactive"},
		{`{}`, "standard"},
		{`not json`, "standard"},
		{`{"slo": "bogus"}`, "standard"},
		{`{"slo": "batch", "data": [1e999]}`, "standard"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(tc.body))
		class, next := requestClass(req)
		if got := class.String(); got != tc.want {
			t.Errorf("requestClass(%q) = %q, want %q", tc.body, got, tc.want)
		}
		b, _ := io.ReadAll(next.Body)
		if string(b) != tc.body {
			t.Errorf("requestClass consumed the body: %q, want %q", b, tc.body)
		}
	}
	// GET has no body to read.
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	if class, next := requestClass(req); class.String() != "standard" || next != req {
		t.Error("GET should pass through as standard")
	}
}

// TestTierDecodesBodyOnce: the tier needs the SLO class and the handler
// needs the tensor, and between them the body is decoded once.
func TestTierDecodesBodyOnce(t *testing.T) {
	tier, _ := newTestTier(t, routetest.NewFakeClock(), 2)
	var got *api.PredictRequest
	h := tier.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _, err := api.ReadPredict(r)
		if err != nil {
			t.Error(err)
		}
		got = req
	}))
	req := httptest.NewRequest(http.MethodPost, "/v1/predict",
		strings.NewReader(`{"model":"m","slo":"interactive","shape":[1,1,2],"data":[1,2]}`))
	req.Header.Set("X-API-Key", "open-secret-key")
	before := api.PredictDecodes()
	h.ServeHTTP(httptest.NewRecorder(), req)
	if n := api.PredictDecodes() - before; n != 1 {
		t.Fatalf("body decoded %d times through tier + handler, want 1", n)
	}
	if got == nil || got.Model != "m" || len(got.Data) != 2 {
		t.Fatalf("handler saw %+v", got)
	}
}

// slowBody advances the fake clock as it is read, as a body arriving over
// a slow link (or a large one being decoded) advances the real one.
type slowBody struct {
	io.Reader
	clock *routetest.FakeClock
	took  time.Duration
}

func (b *slowBody) Read(p []byte) (int, error) {
	n, err := b.Reader.Read(p)
	if err == io.EOF {
		b.clock.Advance(b.took)
		b.took = 0
	}
	return n, err
}

// TestTierIdleQueueWaitIsZero: reading and decoding the body is not
// queueing. With free slots the recorded queue wait is zero however long
// the body took to arrive.
func TestTierIdleQueueWaitIsZero(t *testing.T) {
	clock := routetest.NewFakeClock()
	tier, stats := newTestTier(t, clock, 2)
	h := tier.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		clock.Advance(3 * time.Millisecond) // the handler's own work
	}))
	req := httptest.NewRequest(http.MethodPost, "/v1/predict",
		&slowBody{Reader: strings.NewReader(`{"slo":"batch"}`), clock: clock, took: 8 * time.Millisecond})
	req.Header.Set("X-API-Key", "open-secret-key")
	h.ServeHTTP(httptest.NewRecorder(), req)

	snap := stats.Snapshot().PerTenant["open"]
	if snap.Completed != 1 || snap.QueueWait.Count != 1 {
		t.Fatalf("counters %+v, want one completed request", snap)
	}
	if snap.QueueWait.Max != 0 {
		t.Fatalf("idle tier recorded a queue wait of %v, want 0", snap.QueueWait.Max)
	}
	if snap.Latency.Max != 3*time.Millisecond {
		t.Fatalf("latency %v, want the handler's 3ms", snap.Latency.Max)
	}
}
