package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/tenant"
)

// smokeKeys is the key file the tenant smoke boots with: two equal-weight
// unlimited tenants for the fairness check, plus one with a 1-request
// bucket to provoke quota_exceeded.
const smokeKeys = `{"tenants": [
	{"name": "alpha", "key": "alpha-secret-key"},
	{"name": "bravo", "key": "bravo-secret-key"},
	{"name": "capped", "key": "capped-secret-key", "rate_rps": 0.001, "burst": 1}
]}`

// buildServdRace builds the binary with the race detector, so the smoke
// exercises the real multi-tenant admission path under -race.
func buildServdRace(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "servd-race")
	build := exec.Command("go", "build", "-race", "-o", bin, "drainnas/cmd/servd")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	return bin
}

func authedPredict(t *testing.T, url, key string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func envelopeCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return env.Error.Code
}

// TestServdTenantSmoke boots the real binary with a key file and walks the
// whole edge tier over actual HTTP: 401 for bad keys, 429 quota_exceeded
// for a dry bucket, fair-share goodput for a compliant tenant under a
// concurrent flood, and a live dashboard handshake over both WebSocket and
// SSE.
func TestServdTenantSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	cfg := writeTinyModel(t, dir)
	keyPath := filepath.Join(dir, "keys.json")
	if err := os.WriteFile(keyPath, []byte(smokeKeys), 0o600); err != nil {
		t.Fatal(err)
	}
	bin := buildServdRace(t, dir)
	cmd, url, logs := startServd(t, bin,
		"-models", dir, "-keys", keyPath, "-tenant-inflight", "2", "-dashboard-interval", "50ms")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	waitForHealthy(t, url)
	body := predictBody(t, cfg, "tiny")

	// --- 401: no key, then a wrong key. ---
	for _, key := range []string{"", "not-a-real-key"} {
		resp := authedPredict(t, url, key, body)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q: status %d, want 401", key, resp.StatusCode)
		}
		if code := envelopeCode(t, resp); code != api.CodeUnauthorized {
			t.Fatalf("key %q: code %q, want unauthorized", key, code)
		}
	}

	// --- 429: the capped tenant's single-token bucket runs dry. ---
	resp := authedPredict(t, url, "capped-secret-key", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capped tenant's first request: status %d, want 200", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp = authedPredict(t, url, "capped-secret-key", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if code := envelopeCode(t, resp); code != api.CodeQuotaExceeded {
		t.Fatalf("over-quota code %q, want quota_exceeded", code)
	}

	// --- Fair share: bravo floods concurrently; every one of alpha's
	// sequential requests must still complete successfully. ---
	stopFlood := make(chan struct{})
	var flood sync.WaitGroup
	for i := 0; i < 6; i++ {
		flood.Add(1)
		go func() {
			defer flood.Done()
			for {
				select {
				case <-stopFlood:
					return
				default:
				}
				resp, err := http.DefaultClient.Do(mustRequest(url+"/v1/predict", "bravo-secret-key", body))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	const alphaReqs = 10
	alphaOK := 0
	for i := 0; i < alphaReqs; i++ {
		resp := authedPredict(t, url, "alpha-secret-key", body)
		if resp.StatusCode == http.StatusOK {
			alphaOK++
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	close(stopFlood)
	flood.Wait()
	if alphaOK != alphaReqs {
		t.Fatalf("compliant tenant completed %d/%d requests under flood; log:\n%s",
			alphaOK, alphaReqs, logs.String())
	}

	// --- Dashboard: WebSocket handshake (gated by key). ---
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	handshake := "GET /v1/dashboard/ws?key=alpha-secret-key HTTP/1.1\r\n" +
		"Host: servd\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := conn.Write([]byte(handshake)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "101") {
		t.Fatalf("dashboard handshake status %q, want 101", strings.TrimSpace(status))
	}
	sawAccept := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
		if strings.HasPrefix(line, "Sec-WebSocket-Accept: s3pPLMBiTxaQ9kYGzzhZRbK+xOo=") {
			sawAccept = true
		}
	}
	if !sawAccept {
		t.Fatal("handshake missing the RFC 6455 accept value")
	}
	// First frame: a JSON snapshot that has seen our traffic.
	var hdr [2]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatal(err)
	}
	length := int(hdr[1] & 0x7f)
	if length == 126 {
		var ext [2]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			t.Fatal(err)
		}
		length = int(ext[0])<<8 | int(ext[1])
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatal(err)
	}
	var snap tenant.DashboardSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatalf("dashboard frame is not a snapshot: %v\n%s", err, payload)
	}
	if snap.Service != "servd" || snap.Tenants.PerTenant["alpha"].Completed == 0 {
		t.Fatalf("dashboard snapshot missing tenant traffic: %+v", snap.Tenants)
	}

	// --- Dashboard gate: no key means 401, and the SSE fallback streams. ---
	respNoKey, err := http.Get(url + "/v1/dashboard/events")
	if err != nil {
		t.Fatal(err)
	}
	if respNoKey.StatusCode != http.StatusUnauthorized {
		t.Fatalf("ungated dashboard: status %d, want 401", respNoKey.StatusCode)
	}
	respNoKey.Body.Close()

	sseReq := mustRequest(url+"/v1/dashboard/events", "alpha-secret-key", nil)
	sseReq.Method = http.MethodGet
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if sseResp.StatusCode != http.StatusOK {
		t.Fatalf("sse status %d", sseResp.StatusCode)
	}
	sbr := bufio.NewReader(sseResp.Body)
	for {
		line, err := sbr.ReadString('\n')
		if err != nil {
			t.Fatalf("sse stream ended before a snapshot arrived: %v", err)
		}
		if strings.HasPrefix(line, "data: ") {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &snap); err != nil {
				t.Fatalf("sse event is not a snapshot: %v", err)
			}
			break
		}
	}

	// The audit trail recorded both denials and admits.
	out := logs.String()
	for _, want := range []string{"decision=deny_auth", "decision=deny_quota", "tenant=alpha decision=admit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("audit log missing %q:\n%s", want, out)
		}
	}
}

func mustRequest(url, key string, body []byte) *http.Request {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(http.MethodPost, url, rd)
	if err != nil {
		panic(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+key)
	return req
}
