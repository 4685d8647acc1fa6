package api

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestKnownCodesCoverConstants(t *testing.T) {
	for _, code := range []string{
		CodeBadInput, CodeModelNotFound, CodeQueueFull, CodeThrottled,
		CodeNoReplicas, CodeShuttingDown, CodeCanceled, CodeInternal,
		CodeUnauthorized, CodeQuotaExceeded, CodeScanNotFound, CodeScanLimit,
	} {
		status, ok := KnownCodes[code]
		if !ok {
			t.Errorf("code %q missing from KnownCodes", code)
		}
		if status < 400 || status > 599 {
			t.Errorf("code %q has non-error status %d", code, status)
		}
	}
	if len(KnownCodes) != 12 {
		t.Errorf("KnownCodes has %d entries; update this test when adding codes", len(KnownCodes))
	}
}

func TestErrorEnvelopeRoundTrip(t *testing.T) {
	env := ErrorEnvelope{Error: ErrorBody{Code: CodeQueueFull, Message: "queue is full", RequestID: "abc-000001"}}
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":{"code":"queue_full","message":"queue is full","request_id":"abc-000001"}}`
	if string(b) != want {
		t.Fatalf("envelope encoding drifted:\n got %s\nwant %s", b, want)
	}
	var back ErrorEnvelope
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != env {
		t.Fatalf("round trip: got %+v want %+v", back, env)
	}
}

func TestScanRequestDefaultsAndValidate(t *testing.T) {
	base := ScanRequest{Model: "tiny", Region: "Nebraska", TileSize: 128, ChipSize: 32, Seed: 7}
	r := base.WithDefaults()
	if r.Stride != 32 || r.Channels != 5 || r.Order != ScanOrderRowMajor ||
		r.Window != 8 || r.MaxRetries != 3 || r.Threshold != 0.5 {
		t.Fatalf("defaults wrong: %+v", r)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}

	bad := []struct {
		name string
		mut  func(*ScanRequest)
		frag string
	}{
		{"no model", func(r *ScanRequest) { r.Model = "" }, "model is required"},
		{"no region", func(r *ScanRequest) { r.Region = "" }, "region is required"},
		{"tile too small", func(r *ScanRequest) { r.TileSize = 16 }, "too small"},
		{"tile too large", func(r *ScanRequest) { r.TileSize = 8192 }, "too large"},
		{"chip out of range", func(r *ScanRequest) { r.ChipSize = 4 }, "chip_size"},
		{"chip >= tile", func(r *ScanRequest) { r.ChipSize = 128 }, "chip_size"},
		{"bad channels", func(r *ScanRequest) { r.Channels = 6 }, "channels"},
		{"bad order", func(r *ScanRequest) { r.Order = "spiral" }, "order"},
		{"bad window", func(r *ScanRequest) { r.Window = 4096 }, "window"},
		{"bad retries", func(r *ScanRequest) { r.MaxRetries = 100 }, "max_retries"},
		{"bad threshold", func(r *ScanRequest) { r.Threshold = 1.5 }, "threshold"},
		{"grid too big", func(r *ScanRequest) { r.TileSize = 4096; r.ChipSize = 8; r.Stride = 8 }, "tiles"},
	}
	for _, tc := range bad {
		r := base.WithDefaults()
		tc.mut(&r)
		err := r.Validate()
		if err == nil {
			t.Errorf("%s: accepted %+v", tc.name, r)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.frag)
		}
	}
}

func TestRoutesRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Routes {
		key := r.Method + " " + r.Path
		if seen[key] {
			t.Errorf("duplicate route %s", key)
		}
		seen[key] = true
		if len(r.Tiers) == 0 || r.Desc == "" {
			t.Errorf("route %s missing tiers or description", key)
		}
		if !strings.HasPrefix(r.Path, "/v1/") {
			t.Errorf("route %s is outside the versioned surface", key)
		}
	}
	for _, tier := range []string{"servd", "router"} {
		if len(RoutesFor(tier)) == 0 {
			t.Errorf("RoutesFor(%q) is empty", tier)
		}
	}
	table := EndpointTable()
	for _, r := range Routes {
		if !strings.Contains(table, "`"+r.Path+"`") {
			t.Errorf("EndpointTable missing %s", r.Path)
		}
	}
	codes := ErrorCodeTable()
	for code := range KnownCodes {
		if !strings.Contains(codes, "`"+code+"`") {
			t.Errorf("ErrorCodeTable missing %s", code)
		}
	}
}

func TestRetryablePolicy(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{&Error{Status: 429, Code: CodeQueueFull}, true},
		{&Error{Status: 429, Code: CodeThrottled}, true},
		{&Error{Status: 429, Code: CodeQuotaExceeded}, true},
		{&Error{Status: 400, Code: CodeBadInput}, false},
		{&Error{Status: 404, Code: CodeModelNotFound}, false},
		{&Error{Status: 401, Code: CodeUnauthorized}, false},
		{&Error{Status: 503, Code: CodeShuttingDown}, false},
		{errors.New("connection refused"), true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestErrorCodeExtraction(t *testing.T) {
	wrapped := &Error{Status: 429, Code: CodeThrottled, Message: "slow down"}
	if got := ErrorCode(wrapped); got != CodeThrottled {
		t.Fatalf("ErrorCode = %q", got)
	}
	if got := ErrorCode(errors.New("plain")); got != "" {
		t.Fatalf("ErrorCode(plain) = %q", got)
	}
	if !strings.Contains(wrapped.Error(), "throttled") || !strings.Contains(wrapped.Error(), "429") {
		t.Fatalf("Error() = %q", wrapped.Error())
	}
}

// envelopeHandler writes a typed error envelope the way httpx.Error does.
func envelopeHandler(status int, code, msg string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-ID", "test-000042")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg, RequestID: "test-000042"}})
	}
}

func TestClientTypedErrors(t *testing.T) {
	srv := httptest.NewServer(envelopeHandler(http.StatusNotFound, CodeModelNotFound, "no such model"))
	defer srv.Close()
	c := NewClient(srv.URL+"/", ClientOptions{}) // trailing slash trimmed
	if c.Base() != srv.URL {
		t.Fatalf("base = %q", c.Base())
	}
	_, err := c.Predict(context.Background(), PredictRequest{Model: "ghost"})
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("want *Error, got %T: %v", err, err)
	}
	if e.Status != 404 || e.Code != CodeModelNotFound || e.RequestID != "test-000042" {
		t.Fatalf("typed error wrong: %+v", e)
	}
}

func TestClientRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			envelopeHandler(http.StatusTooManyRequests, CodeQueueFull, "backlog full")(w, r)
			return
		}
		json.NewEncoder(w).Encode(PredictResponse{Model: "tiny", Class: 1})
	}))
	defer srv.Close()
	c := NewClient(srv.URL, ClientOptions{Retries: 3, RetryBackoff: time.Millisecond})
	resp, err := c.Predict(context.Background(), PredictRequest{Model: "tiny"})
	if err != nil {
		t.Fatalf("predict after retries: %v", err)
	}
	if resp.Class != 1 || calls.Load() != 3 {
		t.Fatalf("class=%d calls=%d", resp.Class, calls.Load())
	}
}

func TestClientDoesNotRetryBadInput(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		envelopeHandler(http.StatusBadRequest, CodeBadInput, "shape mismatch")(w, r)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, ClientOptions{Retries: 5, RetryBackoff: time.Millisecond})
	_, err := c.Predict(context.Background(), PredictRequest{Model: "tiny"})
	if ErrorCode(err) != CodeBadInput || calls.Load() != 1 {
		t.Fatalf("err=%v calls=%d", err, calls.Load())
	}
}

func TestClientNeverRetriesStartScan(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		envelopeHandler(http.StatusTooManyRequests, CodeQueueFull, "busy")(w, r)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, ClientOptions{Retries: 5, RetryBackoff: time.Millisecond})
	_, err := c.StartScan(context.Background(), ScanRequest{Model: "tiny", Region: "Nebraska"})
	if ErrorCode(err) != CodeQueueFull || calls.Load() != 1 {
		t.Fatalf("StartScan must not retry: err=%v calls=%d", err, calls.Load())
	}
}

func TestClientSendsAPIKeyAndContentType(t *testing.T) {
	var gotAuth, gotCT string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotAuth = r.Header.Get("Authorization")
		gotCT = r.Header.Get("Content-Type")
		json.NewEncoder(w).Encode(PredictResponse{})
	}))
	defer srv.Close()
	c := NewClient(srv.URL, ClientOptions{APIKey: "sk-edge-1"})
	if _, err := c.Predict(context.Background(), PredictRequest{Model: "m"}); err != nil {
		t.Fatal(err)
	}
	if gotAuth != "Bearer sk-edge-1" || gotCT != "application/json" {
		t.Fatalf("auth=%q ct=%q", gotAuth, gotCT)
	}
}

func TestClientHealthDegraded(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		envelopeHandler(http.StatusServiceUnavailable, CodeInternal, "model dir unreadable")(w, r)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, ClientOptions{})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("degraded health must not be an error: %v", err)
	}
	if h.Status != "degraded" || !strings.Contains(h.Error, "unreadable") {
		t.Fatalf("health = %+v", h)
	}
}

func TestClientScanEventStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.URL.Query().Get("from"); got != "2" {
			t.Errorf("from = %q", got)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.Encode(ScanEvent{Type: ScanEventTile, Seq: 2, Tile: &ScanTile{ID: 2, X: 2, Y: 0, Class: 1, Score: 0.9}})
		enc.Encode(ScanEvent{Type: ScanEventDone, Seq: 3, Job: &ScanJob{ID: "scan-1", State: ScanStateDone}})
	}))
	defer srv.Close()
	c := NewClient(srv.URL, ClientOptions{})
	stream, err := c.ScanEvents(context.Background(), "scan-1", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	ev1, err := stream.Next()
	if err != nil || ev1.Type != ScanEventTile || ev1.Tile == nil || ev1.Tile.ID != 2 {
		t.Fatalf("ev1 = %+v err=%v", ev1, err)
	}
	ev2, err := stream.Next()
	if err != nil || ev2.Type != ScanEventDone || ev2.Job == nil || ev2.Job.State != ScanStateDone {
		t.Fatalf("ev2 = %+v err=%v", ev2, err)
	}
	if _, err := stream.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestClientScanEventsErrorEnvelope(t *testing.T) {
	srv := httptest.NewServer(envelopeHandler(http.StatusNotFound, CodeScanNotFound, "no such job"))
	defer srv.Close()
	c := NewClient(srv.URL, ClientOptions{})
	_, err := c.ScanEvents(context.Background(), "ghost", 0)
	if ErrorCode(err) != CodeScanNotFound {
		t.Fatalf("err = %v", err)
	}
}

func TestPredictRequestTensor(t *testing.T) {
	good := PredictRequest{Shape: []int{2, 3, 3}, Data: make([]float32, 18)}
	x, err := good.Tensor()
	if err != nil || x.Numel() != 18 {
		t.Fatalf("tensor: %v", err)
	}
	for _, bad := range []PredictRequest{
		{Shape: []int{3, 3}, Data: make([]float32, 9)},
		{Shape: []int{2, 3, -1}, Data: nil},
		{Shape: []int{2, 3, 3}, Data: make([]float32, 5)},
		{Shape: []int{1 << 13, 1 << 13, 2}, Data: nil},
	} {
		if _, err := bad.Tensor(); err == nil {
			t.Errorf("accepted bad request %+v", bad)
		}
	}
}

func TestResolveServingKey(t *testing.T) {
	if k, err := ResolveServingKey("tiny", ""); err != nil || k != "tiny" {
		t.Fatalf("fp32: %q %v", k, err)
	}
	if k, err := ResolveServingKey("tiny", "int8"); err != nil || k != "tiny@int8" {
		t.Fatalf("int8: %q %v", k, err)
	}
	if k, err := ResolveServingKey("tiny@int8", ""); err != nil || k != "tiny@int8" {
		t.Fatalf("suffix: %q %v", k, err)
	}
	if _, err := ResolveServingKey("tiny@int8", "fp32"); err == nil {
		t.Fatal("conflict accepted")
	}
}
