package httpx

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// mintedIDRe matches the hex-prefix-dash-counter shape NextRequestID mints.
var mintedIDRe = regexp.MustCompile(`^[0-9a-fx]{4,8}-\d{6}$`)

func TestSanitizeRequestID(t *testing.T) {
	cases := []struct {
		in   string
		pass bool
	}{
		{"trace-42", true},
		{"a", true},
		{strings.Repeat("x", MaxRequestIDLen), true},
		{"", false},
		{strings.Repeat("x", MaxRequestIDLen+1), false},
		{"evil\r\nfake: line", false},
		{"evil\nid", false},
		{"has space", false},
		{"tab\tid", false},
		{"nul\x00id", false},
		{"ünïcode", false},
		{"del\x7fid", false},
	}
	for _, c := range cases {
		got := SanitizeRequestID(c.in)
		if c.pass && got != c.in {
			t.Errorf("SanitizeRequestID(%q) = %q, want unchanged", c.in, got)
		}
		if !c.pass && got != "" {
			t.Errorf("SanitizeRequestID(%q) = %q, want rejection", c.in, got)
		}
	}
}

// TestAccessLogRejectsInjectedRequestID is the regression test for log
// injection: a CR/LF-bearing or oversized incoming X-Request-ID must not be
// echoed into the response header or the access log — a fresh ID is minted
// instead.
func TestAccessLogRejectsInjectedRequestID(t *testing.T) {
	var logBuf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logBuf)
	defer log.SetOutput(prev)

	h := AccessLog("test", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	for _, evil := range []string{
		"evil\r\ntest: access id=forged status=200",
		strings.Repeat("A", 5000),
	} {
		logBuf.Reset()
		req, _ := http.NewRequest("GET", ts.URL, nil)
		// Header.Set validates values in recent net/http, so smuggle the raw
		// bytes in directly the way a hostile client would put them on the
		// wire (the map is written as-is by the test's in-memory transport
		// assertions below; for the HTTP round trip use a safe-but-oversized
		// value and assert the newline variant at the handler layer).
		req.Header["X-Request-Id"] = []string{evil}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			// The stdlib client refuses to send invalid header bytes; exercise
			// the middleware directly instead so the server-side check runs.
			rr := httptest.NewRecorder()
			rawReq := httptest.NewRequest("GET", "/", nil)
			rawReq.Header["X-Request-Id"] = []string{evil}
			h.ServeHTTP(rr, rawReq)
			if id := rr.Header().Get("X-Request-ID"); !mintedIDRe.MatchString(id) {
				t.Fatalf("injected ID %q echoed instead of minted: %q", evil, id)
			}
		} else {
			got := resp.Header.Get("X-Request-ID")
			resp.Body.Close()
			if !mintedIDRe.MatchString(got) {
				t.Fatalf("injected ID %q echoed instead of minted: %q", evil, got)
			}
		}
		if out := logBuf.String(); strings.Contains(out, "forged") || strings.Contains(out, "AAAA") {
			t.Fatalf("attacker bytes reached the access log:\n%s", out)
		}
		if out := logBuf.String(); strings.Count(out, "\n") > strings.Count(out, "test: access ") {
			t.Fatalf("access log grew extra lines (injection):\n%s", out)
		}
	}
}

// TestAccessLogHonorsCleanRequestID pins that sanitization does not break
// the legitimate propagation path.
func TestAccessLogHonorsCleanRequestID(t *testing.T) {
	h := AccessLog("test", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("X-Request-ID", "upstream-7")
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get("X-Request-ID"); got != "upstream-7" {
		t.Fatalf("clean incoming ID not honored: %q", got)
	}
}

// TestStatusRecorderForwardsFlusher is the regression test for streaming
// handlers behind AccessLog: the wrapped writer must still satisfy
// http.Flusher, and flushes must reach the client mid-response.
func TestStatusRecorderForwardsFlusher(t *testing.T) {
	flushed := make(chan struct{})
	h := AccessLog("test", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("ResponseWriter behind AccessLog lost http.Flusher")
			return
		}
		fmt.Fprint(w, "first\n")
		f.Flush()
		close(flushed)
		fmt.Fprint(w, "second\n")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || line != "first\n" {
		t.Fatalf("first flushed line %q, err %v", line, err)
	}
	// The flush provably happened while the handler was still running (it
	// blocks on nothing after the flush, but the channel ordering proves the
	// first line was written before the handler returned).
	<-flushed
	rest, err := io.ReadAll(br)
	if err != nil || string(rest) != "second\n" {
		t.Fatalf("remainder %q, err %v", rest, err)
	}
}

// bareWriter is a ResponseWriter with no optional capabilities at all.
type bareWriter struct{ header http.Header }

func (w *bareWriter) Header() http.Header         { return w.header }
func (w *bareWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *bareWriter) WriteHeader(int)             {}

// TestStatusRecorderFlushUnsupported pins the degraded path: wrapping a
// writer without http.Flusher makes Flush a safe no-op, not a panic.
func TestStatusRecorderFlushUnsupported(t *testing.T) {
	rec := NewStatusRecorder(&bareWriter{header: http.Header{}})
	rec.Flush() // no-op, must not panic
}

func TestStatusRecorderUnwrap(t *testing.T) {
	base := httptest.NewRecorder()
	rec := NewStatusRecorder(base)
	if rec.Unwrap() != http.ResponseWriter(base) {
		t.Fatal("Unwrap did not return the underlying writer")
	}
}
