package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"drainnas/internal/api"
	"drainnas/internal/fronttest"
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

// TestServdTenantSmoke boots the real binary (built -race) with a key file
// and walks the whole edge tier over actual HTTP: 401 for bad keys, 429
// quota_exceeded for a dry bucket, fair-share goodput for a compliant
// tenant under a concurrent flood, and a live dashboard stream over SSE.
func TestServdTenantSmoke(t *testing.T) {
	keyPath := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(keyPath, []byte(smokeKeys), 0o600); err != nil {
		t.Fatal(err)
	}
	p := startServd(t, true, "-keys", keyPath, "-tenant-inflight", "2", "-dashboard-interval", "50ms")
	url := p.URL + "/v1/predict"
	body := fronttest.PredictBody(t, "tiny", "")

	// --- 401: no key, then a wrong key. ---
	for _, key := range []string{"", "not-a-real-key"} {
		resp, got := fronttest.Do(t, "POST", url, key, body)
		fronttest.Envelope(t, resp, got, api.CodeUnauthorized)
	}

	// --- 429: the capped tenant's single-token bucket runs dry. ---
	if resp, _ := fronttest.Do(t, "POST", url, "capped-secret-key", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("capped tenant's first request: status %d, want 200", resp.StatusCode)
	}
	resp, got := fronttest.Do(t, "POST", url, "capped-secret-key", body)
	fronttest.Envelope(t, resp, got, api.CodeQuotaExceeded)

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
				req, _ := http.NewRequest("POST", url, strings.NewReader(string(body)))
				req.Header.Set("Authorization", "Bearer bravo-secret-key")
				resp, err := http.DefaultClient.Do(req)
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
		if resp, _ := fronttest.Do(t, "POST", url, "alpha-secret-key", body); resp.StatusCode == http.StatusOK {
			alphaOK++
		}
	}
	close(stopFlood)
	flood.Wait()
	if alphaOK != alphaReqs {
		t.Fatalf("compliant tenant completed %d/%d requests under flood; log:\n%s", alphaOK, alphaReqs, p.Logs())
	}

	// --- Dashboard gate: no key means 401, and the SSE stream carries a
	// snapshot that has seen our traffic. ---
	resp, got = fronttest.Do(t, "GET", p.URL+"/v1/dashboard/events", "", nil)
	fronttest.Envelope(t, resp, got, api.CodeUnauthorized)

	sseReq, _ := http.NewRequest("GET", p.URL+"/v1/dashboard/events", nil)
	sseReq.Header.Set("Authorization", "Bearer alpha-secret-key")
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if sseResp.StatusCode != http.StatusOK {
		t.Fatalf("sse status %d", sseResp.StatusCode)
	}
	sbr := bufio.NewReader(sseResp.Body)
	var snap tenant.DashboardSnapshot
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
	if snap.Service != "servd" || snap.Tenants.PerTenant["alpha"].Completed == 0 {
		t.Fatalf("dashboard snapshot missing tenant traffic: %+v", snap.Tenants)
	}

	// The audit trail recorded both denials and admits.
	for _, want := range []string{"decision=deny_auth", "decision=deny_quota", "tenant=alpha decision=admit"} {
		if !strings.Contains(p.Logs(), want) {
			t.Fatalf("audit log missing %q:\n%s", want, p.Logs())
		}
	}
}
