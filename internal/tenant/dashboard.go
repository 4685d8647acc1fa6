package tenant

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/httpx"
)

// DashboardSnapshot is one live-dashboard frame: what the serving mux is
// doing (queue depth, batch shapes, latency), the per-tenant edge counters,
// and the fair gate's backlog, stamped with the emitting service. Defined
// in internal/api with the rest of the wire surface.
type DashboardSnapshot = api.DashboardSnapshot

// Dashboard serves the live view: an HTML shell at /v1/dashboard and a
// Server-Sent-Events stream at /v1/dashboard/events. When a Tier is
// attached the endpoints require a valid API key — via the usual headers
// or, for browser EventSource clients that cannot set headers, a ?key=
// query parameter.
type Dashboard struct {
	tier     *Tier
	snapshot func() DashboardSnapshot
	interval time.Duration
}

// NewDashboard builds a dashboard pushing one frame per interval (default
// 1s) from snapshot. tier may be nil to serve the dashboard unauthenticated
// (e.g. servd without -keys).
func NewDashboard(tier *Tier, interval time.Duration, snapshot func() DashboardSnapshot) *Dashboard {
	if interval <= 0 {
		interval = time.Second
	}
	return &Dashboard{tier: tier, snapshot: snapshot, interval: interval}
}

// authorize gates a dashboard endpoint on the tier's key set.
func (d *Dashboard) authorize(w http.ResponseWriter, r *http.Request) bool {
	if d.tier == nil {
		return true
	}
	key := APIKey(r)
	if key == "" {
		key = r.URL.Query().Get("key")
	}
	if _, ok := d.tier.auth.Authenticate(key); ok {
		return true
	}
	d.tier.stats.Unauthorized()
	httpx.Error(w, http.StatusUnauthorized, api.CodeUnauthorized,
		"dashboard requires a valid API key (header or ?key=)")
	return false
}

// Register mounts the dashboard endpoints on mux.
func (d *Dashboard) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/dashboard", d.handlePage)
	mux.HandleFunc("/v1/dashboard/events", d.handleSSE)
}

// handleSSE streams one JSON frame per tick as text/event-stream until the
// client goes away. The first frame is sent immediately so a probe can
// validate the stream without waiting out an interval. It needs the
// http.Flusher that StatusRecorder forwards; without per-frame flushes the
// events would sit in the response buffer until the connection closed.
func (d *Dashboard) handleSSE(w http.ResponseWriter, r *http.Request) {
	if !d.authorize(w, r) {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpx.Error(w, http.StatusInternalServerError, api.CodeInternal,
			"response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	ticker := time.NewTicker(d.interval)
	defer ticker.Stop()
	for {
		frame, err := json.Marshal(d.snapshot())
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "event: snapshot\ndata: %s\n\n", frame); err != nil {
			return
		}
		flusher.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// handlePage serves the static HTML shell; it subscribes to the SSE
// stream.
func (d *Dashboard) handlePage(w http.ResponseWriter, r *http.Request) {
	if !d.authorize(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashboardHTML))
}

const dashboardHTML = `<!doctype html>
<html>
<head>
<meta charset="utf-8">
<title>drainnas live dashboard</title>
<style>
body { font-family: ui-monospace, monospace; margin: 1.5rem; background: #111; color: #ddd; }
h1 { font-size: 1.1rem; } h2 { font-size: 0.95rem; margin-bottom: 0.3rem; }
table { border-collapse: collapse; margin-bottom: 1rem; }
td, th { border: 1px solid #444; padding: 0.2rem 0.6rem; text-align: right; }
th { background: #222; } td:first-child, th:first-child { text-align: left; }
#state { color: #8a8; } .stale { color: #e88; }
</style>
</head>
<body>
<h1>drainnas live dashboard <span id="state">connecting&hellip;</span></h1>
<h2>serving</h2>
<table id="serving"></table>
<h2>tenants</h2>
<table id="tenants"></table>
<script>
function cell(v) { return typeof v === "number" ? v.toFixed(v % 1 ? 2 : 0) : v; }
function render(snap) {
  const f = snap.fair || {};
  const s = snap.serving || {};
  document.getElementById("serving").innerHTML =
    "<tr><th>queue depth</th><th>mean batch</th><th>max batch</th>" +
    "<th>mean latency ms</th><th>gate in use</th><th>gate waiting</th></tr>" +
    "<tr><td>" + [s.queue_depth, s.mean_batch, s.max_batch, s.mean_latency_ms,
                  (f.in_use || 0) + "/" + (f.capacity || 0), f.waiting || 0]
      .map(cell).join("</td><td>") + "</td></tr>";
  const per = (snap.tenants && snap.tenants.per_tenant) || {};
  let rows = "<tr><th>tenant</th><th>admitted</th><th>quota rej</th>" +
             "<th>completed</th><th>failed</th><th>queued</th></tr>";
  for (const name of Object.keys(per).sort()) {
    const t = per[name];
    rows += "<tr><td>" + name + "</td><td>" +
      [t.admitted, t.quota_exceeded, t.completed, t.failed,
       (f.depths || {})[name] || 0].map(cell).join("</td><td>") + "</td></tr>";
  }
  document.getElementById("tenants").innerHTML = rows;
}
const key = new URLSearchParams(location.search).get("key");
const qs = key ? "?key=" + encodeURIComponent(key) : "";
const state = document.getElementById("state");
const es = new EventSource("/v1/dashboard/events" + qs);
es.addEventListener("snapshot", e => { state.textContent = "live"; render(JSON.parse(e.data)); });
es.onerror = () => { state.textContent = "disconnected"; state.className = "stale"; };
</script>
</body>
</html>
`
