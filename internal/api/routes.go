package api

import (
	"fmt"
	"sort"
	"strings"
)

// Route describes one registered endpoint: the generated README reference
// table and the golden API-surface tests are both sourced from this
// registry, so the documented surface, the tested surface and the served
// surface cannot drift apart silently.
type Route struct {
	Method string
	// Path is the net/http register pattern ({id} wildcards included).
	Path string
	// Tiers lists the front ends serving the route ("servd", "router").
	Tiers []string
	Desc  string
}

// Routes is the registry of every HTTP endpoint both front ends expose
// (pprof's debug mount, which is opt-in and not part of the /v1/ surface,
// is deliberately absent).
var Routes = []Route{
	{Method: "POST", Path: "/v1/predict", Tiers: []string{"servd", "router"},
		Desc: "classify one chip (body: PredictRequest; SLO and precision selectors)"},
	{Method: "POST", Path: "/v1/scan", Tiers: []string{"servd", "router"},
		Desc: "start a whole-watershed tile-scan job (body: ScanRequest); returns the job document"},
	{Method: "GET", Path: "/v1/scan/{id}", Tiers: []string{"servd", "router"},
		Desc: "poll a scan job's status and progress counters"},
	{Method: "GET", Path: "/v1/scan/{id}/events", Tiers: []string{"servd", "router"},
		Desc: "stream the job's ordered tile results and progress as NDJSON (?from= resumes)"},
	{Method: "DELETE", Path: "/v1/scan/{id}", Tiers: []string{"servd", "router"},
		Desc: "cancel a running scan job; in-flight tiles drain"},
	{Method: "GET", Path: "/v1/stats", Tiers: []string{"servd", "router"},
		Desc: "counters as JSON (ServdStats / RouterStats)"},
	{Method: "GET", Path: "/v1/metrics", Tiers: []string{"servd", "router"},
		Desc: "Prometheus text exposition of the same counters"},
	{Method: "GET", Path: "/v1/healthz", Tiers: []string{"servd", "router"},
		Desc: "liveness + models (HealthResponse); 503 degraded when the model dir is unreadable"},
	{Method: "GET", Path: "/v1/dashboard", Tiers: []string{"servd", "router"},
		Desc: "live dashboard HTML shell"},
	{Method: "GET", Path: "/v1/dashboard/ws", Tiers: []string{"servd", "router"},
		Desc: "dashboard snapshot stream over WebSocket"},
	{Method: "GET", Path: "/v1/dashboard/events", Tiers: []string{"servd", "router"},
		Desc: "dashboard snapshot stream over SSE"},
}

// RoutesFor returns the registry filtered to one tier.
func RoutesFor(tier string) []Route {
	var out []Route
	for _, r := range Routes {
		for _, t := range r.Tiers {
			if t == tier {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// EndpointTable renders the registry as the markdown reference table the
// README embeds (a doc test pins the embedded copy against this).
func EndpointTable() string {
	var b strings.Builder
	b.WriteString("| Method | Path | Tiers | Description |\n")
	b.WriteString("|--------|------|-------|-------------|\n")
	for _, r := range Routes {
		fmt.Fprintf(&b, "| %s | `%s` | %s | %s |\n", r.Method, r.Path, strings.Join(r.Tiers, ", "), r.Desc)
	}
	return b.String()
}

// ErrorCodeTable renders the stable code set (code, HTTP status) sorted by
// status then code, for the README.
func ErrorCodeTable() string {
	type row struct {
		code   string
		status int
	}
	rows := make([]row, 0, len(KnownCodes))
	for c, s := range KnownCodes {
		rows = append(rows, row{c, s})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].status != rows[j].status {
			return rows[i].status < rows[j].status
		}
		return rows[i].code < rows[j].code
	})
	var b strings.Builder
	b.WriteString("| Code | HTTP status |\n|------|-------------|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| `%s` | %d |\n", r.code, r.status)
	}
	return b.String()
}
