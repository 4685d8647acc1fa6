package tenant

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/tensor"
)

// rewindBody is a request body the loop rewinds instead of reallocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// BenchmarkTierWrapNoop is the tenant tier's own cost per predict at the
// paper's 5×100×100 chip. Inside the timed region: Tier.Wrap end to end —
// authenticate, quota, read and decode the body (api.ReadPredict; the one
// decode of the request, which a real handler behind the tier then gets
// for free), fair-queue acquire and release on an idle gate, the audit
// line (to io.Discard) and the stats update — around a handler that does
// nothing. Outside: building the request, any socket.
func BenchmarkTierWrapNoop(b *testing.B) {
	prev := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(prev)
	path := writeKeyFile(b, b.TempDir(), quotaTenants)
	tier, err := LoadTier(path, time.Hour, 8, "bench")
	if err != nil {
		b.Fatal(err)
	}
	h := tier.Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))

	x := tensor.RandNormal(tensor.NewRNG(1), 1, 5, 100, 100)
	hop, err := api.PredictFromTensor("front32", "interactive", x)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		req  api.PredictRequest
	}{
		{"json", api.PredictRequest{Model: "front32", SLO: "interactive", Shape: []int{5, 100, 100}, Data: x.Data()}},
		{"b64", hop},
	} {
		b.Run(bc.name, func(b *testing.B) {
			body, err := json.Marshal(bc.req)
			if err != nil {
				b.Fatal(err)
			}
			r := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
			r.Header.Set("Authorization", "Bearer open-secret-key")
			r.ContentLength = int64(len(body))
			w := httptest.NewRecorder()
			var rb rewindBody
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb.Reset(body)
				r.Body = &rb
				h.ServeHTTP(w, r)
			}
			if w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		})
	}
}
