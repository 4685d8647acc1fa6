package tenant

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/httpx"
	"drainnas/internal/metrics"
	"drainnas/internal/route/routetest"
)

// newDashboardServer stands up the dashboard behind httpx.AccessLog — the
// production wrapping — so these tests exercise the Flusher forwarding
// through StatusRecorder end to end.
func newDashboardServer(t *testing.T, withTier bool) (*httptest.Server, *Tier) {
	t.Helper()
	var tier *Tier
	if withTier {
		tier, _ = newTestTier(t, routetest.NewFakeClock(), 2)
	}
	stats := &metrics.ServingStats{}
	snapshot := func() DashboardSnapshot {
		var tenants metrics.TenantSnapshot
		if tier != nil {
			tenants = tier.Stats().Snapshot()
		}
		return DashboardSnapshot{
			Service: "test",
			Serving: stats.Snapshot(),
			Tenants: tenants,
			Fair:    tier.Fair().Stats(),
		}
	}
	mux := http.NewServeMux()
	NewDashboard(tier, 10*time.Millisecond, snapshot).Register(mux)
	ts := httptest.NewServer(httpx.AccessLog("test", mux))
	t.Cleanup(ts.Close)
	return ts, tier
}

func TestDashboardSSEStream(t *testing.T) {
	ts, _ := newDashboardServer(t, false)
	resp, err := http.Get(ts.URL + "/v1/dashboard/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// Two events must arrive while the response is still open — only
	// possible if the handler can flush through the middleware.
	br := bufio.NewReader(resp.Body)
	for event := 0; event < 2; event++ {
		var data string
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("stream ended early: %v", err)
			}
			if strings.HasPrefix(line, "data: ") {
				data = strings.TrimPrefix(strings.TrimSpace(line), "data: ")
				break
			}
		}
		var snap DashboardSnapshot
		if err := json.Unmarshal([]byte(data), &snap); err != nil {
			t.Fatalf("event %d is not a snapshot: %v", event, err)
		}
	}
}

func TestDashboardAuthGate(t *testing.T) {
	ts, _ := newDashboardServer(t, true)

	// No key: 401 with the envelope code.
	resp, err := http.Get(ts.URL + "/v1/dashboard/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status %d, want 401", resp.StatusCode)
	}
	if e := decodeError(t, resp.Body); e.Code != api.CodeUnauthorized {
		t.Fatalf("code %q", e.Code)
	}
	resp.Body.Close()

	// ?key= works for browser EventSource clients.
	resp, err = http.Get(ts.URL + "/v1/dashboard?key=open-secret-key")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with query key, want 200", resp.StatusCode)
	}
	page, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(page), "drainnas live dashboard") {
		t.Fatal("dashboard page missing")
	}
}
