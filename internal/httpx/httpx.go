// Package httpx is the HTTP plumbing shared by the serving front ends
// (cmd/servd and cmd/router): rendering the internal/api error envelope,
// request-ID minting and propagation, and the access-log middleware. It was
// extracted from cmd/servd when the router tier arrived so both tiers speak
// byte-identical JSON, and slimmed again when the wire types themselves
// moved to internal/api — httpx is transport plumbing only; the structs on
// the wire are defined in exactly one place.
package httpx

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"drainnas/internal/api"
)

// Error writes the unified error envelope. The request ID comes from the
// X-Request-ID response header that AccessLog stamps before the handler
// runs, so the body matches what the client can quote back from the header.
func Error(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, api.ErrorEnvelope{Error: api.ErrorBody{
		Code:      code,
		Message:   msg,
		RequestID: w.Header().Get("X-Request-ID"),
	}})
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("httpx: encoding response: %v", err)
	}
}

// reqIDPrefix distinguishes this process's IDs from a restarted instance's;
// the atomic counter distinguishes requests within it.
var (
	reqIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "httpx"
		}
		return hex.EncodeToString(b[:])
	}()
	reqIDSeq atomic.Uint64
)

// NextRequestID mints a process-unique request ID.
func NextRequestID() string {
	return fmt.Sprintf("%s-%06d", reqIDPrefix, reqIDSeq.Add(1))
}

// MaxRequestIDLen caps an echoed X-Request-ID. Incoming IDs are
// client-controlled; without a cap a single request could push kilobytes
// into every access-log line and response header it touches downstream.
const MaxRequestIDLen = 64

// SanitizeRequestID validates a client-supplied request ID: non-empty, at
// most MaxRequestIDLen bytes, every byte graphic ASCII (0x21–0x7E — no
// spaces, no CR/LF, no control bytes that could forge log lines or split
// headers). It returns the ID unchanged when it conforms and "" otherwise,
// so callers mint a fresh one instead of echoing attacker-shaped bytes.
func SanitizeRequestID(id string) string {
	if id == "" || len(id) > MaxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return ""
		}
	}
	return id
}

// AccessLog wraps h with request-ID propagation and one structured log line
// per request: id, method, path, status, response bytes and latency, tagged
// with service (e.g. "servd", "router"). An incoming X-Request-ID is honored
// (so IDs follow a request across proxies and through the router's fan-out)
// only when it passes SanitizeRequestID — an ID with control bytes or an
// absurd length is replaced by a minted one rather than echoed into the log
// and response header; otherwise one is minted, and either way it is echoed
// back.
func AccessLog(service string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := SanitizeRequestID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = NextRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		rec := NewStatusRecorder(w)
		start := time.Now()
		h.ServeHTTP(rec, r)
		log.Printf("%s: access id=%s method=%s path=%s status=%d bytes=%d dur_ms=%.3f",
			service, id, r.Method, r.URL.Path, rec.Status, rec.Bytes,
			float64(time.Since(start))/float64(time.Millisecond))
	})
}

// StatusRecorder wraps a ResponseWriter to capture the status code and body
// size a handler wrote, for access and audit logging. It forwards the
// optional http.Flusher capability of the underlying writer — a streaming
// (SSE, NDJSON) handler behind the middleware must not silently lose flush
// support — and exposes Unwrap for http.ResponseController users.
type StatusRecorder struct {
	http.ResponseWriter
	// Status is the first status code written (200 if the handler never
	// called WriteHeader).
	Status int
	// Bytes counts body bytes written through the recorder.
	Bytes int64
	wrote bool
}

// NewStatusRecorder wraps w; the zero status is 200, matching net/http's
// implicit WriteHeader on first Write.
func NewStatusRecorder(w http.ResponseWriter) *StatusRecorder {
	return &StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
}

func (r *StatusRecorder) WriteHeader(status int) {
	if !r.wrote {
		r.Status = status
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *StatusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	n, err := r.ResponseWriter.Write(p)
	r.Bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it supports streaming.
// Presenting the method unconditionally matches net/http middleware
// convention; flushing a non-Flusher writer is a no-op rather than a
// capability the wrapper pretends away.
func (r *StatusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (r *StatusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }
