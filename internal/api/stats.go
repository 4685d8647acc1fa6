package api

import (
	"drainnas/internal/metrics"
	"drainnas/internal/serve"
)

// HealthResponse is the GET /v1/healthz body for both tiers. Status is
// "ok" (200) or "degraded" (503, with Error set); servd reports its model
// directory, the router additionally its fleet size and policy.
type HealthResponse struct {
	Status   string   `json:"status"`
	Error    string   `json:"error,omitempty"`
	Replicas int      `json:"replicas,omitempty"`
	Policy   string   `json:"policy,omitempty"`
	Models   []string `json:"models"`
}

// FairStats is the weighted-fair admission gate's slice of a stats or
// dashboard document.
type FairStats struct {
	Capacity int            `json:"capacity"`
	InUse    int            `json:"in_use"`
	Waiting  int            `json:"waiting"`
	Depths   map[string]int `json:"depths,omitempty"`
}

// ServdStats is servd's GET /v1/stats document, and — through the prom
// tags of the snapshots it is composed of, rendered in field order by
// metrics.ExpositionWriter.Write — its GET /v1/metrics page.
type ServdStats struct {
	Serving metrics.ServingSnapshot `json:"serving"`
	Cache   serve.CacheStats        `json:"cache"`
	Queue   int                     `json:"queue"`
	Infer   metrics.InferSnapshot   `json:"infer"`
	Kernel  metrics.KernelSnapshot  `json:"kernel"`
	Gemm    string                  `json:"gemm"`
	QGemm   string                  `json:"qgemm"`
	Scan    *metrics.ScanSnapshot   `json:"scan,omitempty"`
	Tenant  *metrics.TenantSnapshot `json:"tenant,omitempty"`
	Fair    *FairStats              `json:"fair,omitempty"`
}

// RouterStats is the router's GET /v1/stats document and, the same way,
// its GET /v1/metrics page.
type RouterStats struct {
	Router   metrics.RouterSnapshot  `json:"router"`
	Serving  metrics.ServingSnapshot `json:"serving"`
	Replicas []string                `json:"replicas"`
	Policy   string                  `json:"policy"`
	Waiting  int                     `json:"waiting"`
	Scan     *metrics.ScanSnapshot   `json:"scan,omitempty"`
	Tenant   *metrics.TenantSnapshot `json:"tenant,omitempty"`
	Fair     *FairStats              `json:"fair,omitempty"`
}

// DashboardSnapshot is one live-dashboard frame (SSE at
// /v1/dashboard/events): what the serving mux is
// doing, the per-tenant edge counters, and the fair gate's backlog,
// stamped with the emitting service.
type DashboardSnapshot struct {
	Service string                  `json:"service"`
	Serving metrics.ServingSnapshot `json:"serving"`
	Tenants metrics.TenantSnapshot  `json:"tenants"`
	Fair    FairStats               `json:"fair"`
}
