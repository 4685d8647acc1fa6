package metrics

import (
	"sync"
	"time"
)

// maxTrackedTenants bounds the per-tenant breakdown. Tenant names come from
// the operator's key file rather than from clients, so the cap is a guard
// against a pathological key file (or a future dynamic registration path)
// rather than against attackers; beyond it, traffic aggregates under
// OverflowKey exactly like the per-model serving stats.
const maxTrackedTenants = 64

// TenantStats aggregates the multi-tenant edge tier's counters: admission
// outcomes per tenant (admitted past auth+quota, quota-rejected, completed,
// failed), fair-queue wait and end-to-end latency histograms per tenant,
// and the global count of unauthorized requests (which by definition have
// no tenant). All methods are safe for concurrent use and are no-ops on a
// nil receiver, so the serving front ends need no nil checks when the
// tenant tier is disabled.
type TenantStats struct {
	mu sync.Mutex
	// c is the snapshot's counters; Snapshot fills in PerTenant.
	c         TenantSnapshot
	perTenant map[string]*tenantSink
}

// tenantSink is one tenant's counters with the live histograms behind
// their QueueWait and Latency.
type tenantSink struct {
	TenantBreakdown
	queueWait, latency Histogram
}

func (c *tenantSink) snapshot() TenantBreakdown {
	snap := c.TenantBreakdown
	snap.QueueWait, snap.Latency = c.queueWait.Snapshot(), c.latency.Snapshot()
	return snap
}

// locked runs f under the lock; a nil sink runs nothing.
func (s *TenantStats) locked(f func()) {
	if s == nil {
		return
	}
	s.mu.Lock()
	f()
	s.mu.Unlock()
}

// tenant returns the sink for name, creating it under the tracking cap;
// the caller holds s.mu.
func (s *TenantStats) tenant(name string) *tenantSink {
	return tracked(&s.perTenant, maxTrackedTenants, name)
}

// Unauthorized records a request that presented no key or an unknown one.
func (s *TenantStats) Unauthorized() {
	s.locked(func() { s.c.Unauthorized++ })
}

// Admitted records a request that passed authentication and its tenant's
// quota, entering fair-queue admission.
func (s *TenantStats) Admitted(tenant string) {
	s.locked(func() { s.tenant(tenant).Admitted++ })
}

// QuotaExceeded records an authenticated request bounced by its tenant's
// token bucket.
func (s *TenantStats) QuotaExceeded(tenant string) {
	s.locked(func() { s.tenant(tenant).QuotaExceeded++ })
}

// Completed records one admitted request that ended in a 2xx: its wait at
// the weighted-fair gate and its total middleware-to-response latency.
func (s *TenantStats) Completed(tenant string, queueWait, total time.Duration) {
	s.locked(func() {
		c := s.tenant(tenant)
		c.Completed++
		c.queueWait.Observe(queueWait)
		c.latency.Observe(total)
	})
}

// Failed records one admitted request that ended in a non-2xx status.
func (s *TenantStats) Failed(tenant string, queueWait, total time.Duration) {
	s.locked(func() {
		c := s.tenant(tenant)
		c.Failed++
		c.queueWait.Observe(queueWait)
		c.latency.Observe(total)
	})
}

// TenantBreakdown is the per-tenant slice of a tenant snapshot.
type TenantBreakdown struct {
	Admitted      uint64            `json:"admitted" prom:"drainnas_tenant_requests_total,outcome=admitted" help:"Per-tenant requests by outcome."`
	QuotaExceeded uint64            `json:"quota_exceeded" prom:"drainnas_tenant_requests_total,outcome=quota_exceeded"`
	Completed     uint64            `json:"completed" prom:"drainnas_tenant_requests_total,outcome=completed"`
	Failed        uint64            `json:"failed" prom:"drainnas_tenant_requests_total,outcome=failed"`
	QueueWait     HistogramSnapshot `json:"queue_wait" prom:"drainnas_tenant_queue_wait_seconds" help:"Per-tenant wait at the weighted-fair admission gate."`
	Latency       HistogramSnapshot `json:"latency" prom:"drainnas_tenant_latency_seconds" help:"Per-tenant end-to-end latency through the edge tier."`
}

// TenantSnapshot is a point-in-time copy of the edge-tier counters.
type TenantSnapshot struct {
	Unauthorized uint64                     `json:"unauthorized" prom:"drainnas_tenant_unauthorized_total" help:"Requests rejected for a missing or unknown API key."`
	PerTenant    map[string]TenantBreakdown `json:"per_tenant,omitempty" label:"tenant"`
}

// Snapshot returns a consistent copy of the counters.
func (s *TenantStats) Snapshot() (snap TenantSnapshot) {
	s.locked(func() {
		snap = s.c
		snap.PerTenant = copyMap(s.perTenant, (*tenantSink).snapshot)
	})
	return snap
}
