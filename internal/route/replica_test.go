package route_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/httpx"
	"drainnas/internal/route"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

// TestHTTPReplicaRoundTrip pins the wire adapter: the hop body carries the
// flattened CHW chip as data_b64 (little-endian float32, no decimal text)
// that any encoding/json reader of api.PredictRequest turns back into the
// same tensor, and the remote predict response maps back onto
// serve.Response — serving key rebuilt from the model and precision echo,
// millisecond fields rehydrated to durations.
func TestHTTPReplicaRoundTrip(t *testing.T) {
	var (
		got api.PredictRequest
		raw []byte
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/predict" {
			t.Errorf("request = %s %s, want POST /v1/predict", r.Method, r.URL.Path)
		}
		raw, _ = io.ReadAll(r.Body)
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Errorf("decoding request: %v", err)
		}
		httpx.WriteJSON(w, http.StatusOK, api.PredictResponse{
			Model: "tiny", Precision: "int8", Class: 1, Logits: []float32{0.2, 0.8},
			BatchSize: 4, QueuedMS: 1.5, TotalMS: 12,
		})
	}))
	defer srv.Close()

	rep := route.NewHTTPReplica("remote-0", srv.URL, nil)
	if rep.ID() != "remote-0" {
		t.Fatalf("ID = %q", rep.ID())
	}
	in := tensor.RandNormal(tensor.NewRNG(5), 1, 3, 4, 4) // batch form: must flatten to (3,4,4)
	resp, err := rep.Submit(context.Background(), "tiny@int8", in)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got.Model != "tiny@int8" {
		t.Fatalf("wire model = %q", got.Model)
	}
	if len(got.Shape) != 3 || got.Shape[0] != 3 || got.Shape[1] != 4 || got.Shape[2] != 4 {
		t.Fatalf("wire shape = %v, want [3 4 4]", got.Shape)
	}
	if got.Data != nil || len(got.DataB64) != 4*48 || !bytes.Contains(raw, []byte(`"data_b64":"`)) || bytes.Contains(raw, []byte(`"data":`)) {
		t.Fatalf("wire body %.120s: want 48 values as data_b64 and no data array", raw)
	}
	x, err := got.Tensor()
	if err != nil {
		t.Fatalf("wire tensor: %v", err)
	}
	for i, v := range in.Data() {
		if math.Float32bits(x.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("wire value %d = %v, want %v", i, x.Data()[i], v)
		}
	}
	if resp.Model != "tiny@int8" {
		t.Fatalf("resp.Model = %q, want the serving key the replica ran, tiny@int8", resp.Model)
	}
	if resp.Class != 1 || resp.BatchSize != 4 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Queued != 1500*time.Microsecond || resp.Total != 12*time.Millisecond {
		t.Fatalf("durations = queued %v total %v", resp.Queued, resp.Total)
	}
	if rep.InFlight() != 0 {
		t.Fatalf("InFlight after response = %d", rep.InFlight())
	}
}

// TestHTTPReplicaErrorMapping pins that the remote error envelope converts
// back to the same typed sentinels local submission raises, so router retry
// and front-end status mapping cannot tell the transports apart.
func TestHTTPReplicaErrorMapping(t *testing.T) {
	cases := []struct {
		status int
		code   string
		want   error
	}{
		{http.StatusTooManyRequests, api.CodeQueueFull, serve.ErrQueueFull},
		{http.StatusNotFound, api.CodeModelNotFound, serve.ErrModelNotFound},
		{http.StatusServiceUnavailable, api.CodeShuttingDown, serve.ErrClosed},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				httpx.WriteJSON(w, tc.status, api.ErrorEnvelope{
					Error: api.ErrorBody{Code: tc.code, Message: "injected"},
				})
			}))
			defer srv.Close()

			rep := route.NewHTTPReplica("", srv.URL, nil)
			if rep.ID() != srv.URL {
				t.Fatalf("default ID = %q, want base URL", rep.ID())
			}
			_, err := rep.Submit(context.Background(), "m", tensor.New(3, 4, 4))
			if !errors.Is(err, tc.want) {
				t.Fatalf("Submit: %v, want %v", err, tc.want)
			}
		})
	}

	// An unknown code stays an opaque error: not retry-exempt, not a sentinel.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusBadRequest, api.ErrorEnvelope{
			Error: api.ErrorBody{Code: api.CodeBadInput, Message: "bad"},
		})
	}))
	defer srv.Close()
	_, err := route.NewHTTPReplica("x", srv.URL, nil).Submit(context.Background(), "m", tensor.New(3, 4, 4))
	if err == nil || errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrModelNotFound) {
		t.Fatalf("unknown-code Submit: %v, want plain error", err)
	}
}

// TestHTTPReplicaCancellation pins the Replica contract on the HTTP
// transport: canceling the attempt context aborts the in-flight request
// promptly and surfaces ctx.Err, which is what hedging's loser cancellation
// leans on.
func TestHTTPReplicaCancellation(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	rep := route.NewHTTPReplica("remote", srv.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := rep.Submit(ctx, "m", tensor.New(3, 4, 4))
		done <- err
	}()
	<-entered
	if rep.InFlight() != 1 {
		t.Fatalf("InFlight during request = %d, want 1", rep.InFlight())
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit did not honor cancellation")
	}
	if rep.InFlight() != 0 {
		t.Fatalf("InFlight after cancel = %d, want 0", rep.InFlight())
	}
}

// TestHTTPReplicaBadInput pins payload validation before any bytes move: a
// batched tensor with batch != 1 cannot be flattened to the wire shape.
func TestHTTPReplicaBadInput(t *testing.T) {
	rep := route.NewHTTPReplica("remote", "http://127.0.0.1:0", nil)
	if _, err := rep.Submit(context.Background(), "m", tensor.New(2, 3, 4, 4)); err == nil {
		t.Fatal("Submit with batch 2 succeeded, want error")
	}
	if _, err := rep.Submit(context.Background(), "m", nil); err == nil {
		t.Fatal("Submit with nil input succeeded, want error")
	}
	if _, err := rep.Submit(context.Background(), "m", tensor.New(4, 4)); err == nil {
		t.Fatal("Submit with 2-d input succeeded, want error")
	}
}
