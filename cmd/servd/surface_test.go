package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/serve"
	"drainnas/internal/tenant"
)

// TestAPISurfaceRoutes walks every route internal/api registers for the
// servd tier against the real mux and asserts each one is actually
// mounted: a path drifting out of newAPIWithTenant would come back as
// ServeMux's plain-text 404/405 instead of a handler response. Deprecated
// aliases must carry the Deprecation header and a successor Link; /v1/
// routes must not.
func TestAPISurfaceRoutes(t *testing.T) {
	dir := t.TempDir()
	writeTinyModel(t, dir)
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxDelay: time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(newAPI(srv, dir))
	defer ts.Close()

	for _, rt := range api.RoutesFor("servd") {
		path := strings.ReplaceAll(rt.Path, "{id}", "scan-surface-0")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var body *strings.Reader
		if rt.Method == http.MethodPost {
			body = strings.NewReader("{}")
		} else {
			body = strings.NewReader("")
		}
		req, err := http.NewRequestWithContext(ctx, rt.Method, ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			cancel()
			t.Fatalf("%s %s: %v", rt.Method, rt.Path, err)
		}
		ct := resp.Header.Get("Content-Type")
		if resp.StatusCode == http.StatusNotFound && strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s %s: not mounted (mux 404)", rt.Method, rt.Path)
		}
		if resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("%s %s: method not allowed — registry and mux disagree", rt.Method, rt.Path)
		}
		dep := resp.Header.Get("Deprecation")
		if rt.Deprecated {
			if dep != "true" {
				t.Errorf("%s %s: deprecated alias missing Deprecation header (got %q)", rt.Method, rt.Path, dep)
			}
			if link := resp.Header.Get("Link"); !strings.Contains(link, rt.Successor) {
				t.Errorf("%s %s: Link %q does not name successor %s", rt.Method, rt.Path, link, rt.Successor)
			}
		} else if dep != "" {
			t.Errorf("%s %s: unexpected Deprecation header %q on a current route", rt.Method, rt.Path, dep)
		}
		// Streaming endpoints (dashboard SSE) never end on their own;
		// cancel instead of draining the body.
		cancel()
		resp.Body.Close()
	}
}

// checkEnvelope pins the JSON error envelope against internal/api: the
// body must be exactly {"error": {code, message, request_id?}}, the code
// must be registered in api.KnownCodes, and the HTTP status must be the
// one the registry pins for that code.
func checkEnvelope(t *testing.T, name string, resp *http.Response, wantCode string) {
	t.Helper()
	defer resp.Body.Close()
	var top map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
		t.Fatalf("%s: decoding envelope: %v", name, err)
	}
	if len(top) != 1 || top["error"] == nil {
		t.Fatalf("%s: top-level keys %v, want exactly [error]", name, keysOf(top))
	}
	var errBody map[string]json.RawMessage
	if err := json.Unmarshal(top["error"], &errBody); err != nil {
		t.Fatalf("%s: decoding error body: %v", name, err)
	}
	for k := range errBody {
		switch k {
		case "code", "message", "request_id":
		default:
			t.Errorf("%s: unexpected error field %q", name, k)
		}
	}
	var code, msg string
	if err := json.Unmarshal(errBody["code"], &code); err != nil {
		t.Fatalf("%s: error.code: %v", name, err)
	}
	if err := json.Unmarshal(errBody["message"], &msg); err != nil {
		t.Fatalf("%s: error.message: %v", name, err)
	}
	if msg == "" {
		t.Errorf("%s: empty error.message", name)
	}
	wantStatus, known := api.KnownCodes[code]
	if !known {
		t.Fatalf("%s: code %q not in api.KnownCodes", name, code)
	}
	if resp.StatusCode != wantStatus {
		t.Errorf("%s: status %d, but api.KnownCodes pins %q to %d", name, resp.StatusCode, code, wantStatus)
	}
	if code != wantCode {
		t.Errorf("%s: code %q, want %q", name, code, wantCode)
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestAPISurfaceErrorEnvelopes drives every cheaply reachable error code
// through the open (no edge tier) servd mux and pins the envelope.
func TestAPISurfaceErrorEnvelopes(t *testing.T) {
	dir := t.TempDir()
	cfg := writeTinyModel(t, dir)
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxDelay: time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(newAPI(srv, dir))
	defer ts.Close()

	scanBody := func(region string) string {
		return `{"model":"tiny","region":"` + region + `","tile_size":64,"chip_size":16}`
	}
	cases := []struct {
		name, method, path, body, code string
	}{
		{"predict garbage body", "POST", "/v1/predict", "{", api.CodeBadInput},
		{"predict unknown model", "POST", "/v1/predict", string(predictBody(t, cfg, "ghost")), api.CodeModelNotFound},
		{"scan start garbage body", "POST", "/v1/scan", "not json", api.CodeBadInput},
		{"scan start unknown region", "POST", "/v1/scan", scanBody("Atlantis"), api.CodeBadInput},
		{"scan status unknown id", "GET", "/v1/scan/scan-404", "", api.CodeScanNotFound},
		{"scan cancel unknown id", "DELETE", "/v1/scan/scan-404", "", api.CodeScanNotFound},
		{"scan events unknown id", "GET", "/v1/scan/scan-404/events", "", api.CodeScanNotFound},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelope(t, tc.name, resp, tc.code)
	}
}

// TestAPISurfaceUnauthorizedEnvelope repeats the envelope check for the
// 401 path, which only exists once the edge tier is mounted.
func TestAPISurfaceUnauthorizedEnvelope(t *testing.T) {
	dir := t.TempDir()
	writeTinyModel(t, dir)
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxDelay: time.Millisecond})
	defer srv.Close()

	keyPath := filepath.Join(dir, "keys.json")
	keyJSON := `{"tenants": [{"name": "acme", "key": "acme-secret-key"}]}`
	if err := os.WriteFile(keyPath, []byte(keyJSON), 0o600); err != nil {
		t.Fatal(err)
	}
	edge, err := tenant.LoadTier(keyPath, time.Minute, 2, "servd-surface")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newAPIWithTenant(srv, dir, nil, edge, time.Second))
	defer ts.Close()

	for _, tc := range []struct{ name, method, path, body string }{
		{"predict without key", "POST", "/v1/predict", "{}"},
		{"scan start without key", "POST", "/v1/scan", "{}"},
		{"scan status without key", "GET", "/v1/scan/scan-404", ""},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelope(t, tc.name, resp, api.CodeUnauthorized)
	}
}
