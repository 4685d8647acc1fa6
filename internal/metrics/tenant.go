package metrics

import (
	"fmt"
	"sync"
	"time"
)

// maxTrackedTenants bounds the per-tenant breakdown. Tenant names come from
// the operator's key file rather than from clients, so the cap is a guard
// against a pathological key file (or a future dynamic registration path)
// rather than against attackers; beyond it, traffic aggregates under
// OverflowTenantKey exactly like the per-model serving stats.
const maxTrackedTenants = 64

// OverflowTenantKey is the per-tenant bucket absorbing traffic once
// maxTrackedTenants distinct tenants have been seen.
const OverflowTenantKey = OverflowKey

// TenantStats aggregates the multi-tenant edge tier's counters: admission
// outcomes per tenant (admitted past auth+quota, quota-rejected, completed,
// failed), fair-queue wait and end-to-end latency histograms per tenant,
// and the global count of unauthorized requests (which by definition have
// no tenant). All methods are safe for concurrent use and are no-ops on a
// nil receiver, so the serving front ends need no nil checks when the
// tenant tier is disabled.
type TenantStats struct {
	mu sync.Mutex

	unauthorized uint64

	perTenant map[string]*tenantCounters
}

type tenantCounters struct {
	admitted      uint64
	quotaExceeded uint64
	completed     uint64
	failed        uint64
	queueWait     Histogram
	latency       Histogram
}

// tenantLocked returns the sink for name, creating it under the tracking
// cap; the caller holds s.mu.
func (s *TenantStats) tenantLocked(name string) *tenantCounters {
	return tracked(&s.perTenant, maxTrackedTenants, name)
}

// Unauthorized records a request that presented no key or an unknown one.
func (s *TenantStats) Unauthorized() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.unauthorized++
	s.mu.Unlock()
}

// Admitted records a request that passed authentication and its tenant's
// quota, entering fair-queue admission.
func (s *TenantStats) Admitted(tenant string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tenantLocked(tenant).admitted++
	s.mu.Unlock()
}

// QuotaExceeded records an authenticated request bounced by its tenant's
// token bucket.
func (s *TenantStats) QuotaExceeded(tenant string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tenantLocked(tenant).quotaExceeded++
	s.mu.Unlock()
}

// Completed records one admitted request that ended in a 2xx: its wait at
// the weighted-fair gate and its total middleware-to-response latency.
func (s *TenantStats) Completed(tenant string, queueWait, total time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	c := s.tenantLocked(tenant)
	c.completed++
	c.queueWait.Observe(queueWait)
	c.latency.Observe(total)
	s.mu.Unlock()
}

// Failed records one admitted request that ended in a non-2xx status.
func (s *TenantStats) Failed(tenant string, queueWait, total time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	c := s.tenantLocked(tenant)
	c.failed++
	c.queueWait.Observe(queueWait)
	c.latency.Observe(total)
	s.mu.Unlock()
}

// TenantBreakdown is the per-tenant slice of a tenant snapshot.
type TenantBreakdown struct {
	Admitted      uint64            `json:"admitted"`
	QuotaExceeded uint64            `json:"quota_exceeded"`
	Completed     uint64            `json:"completed"`
	Failed        uint64            `json:"failed"`
	QueueWait     HistogramSnapshot `json:"queue_wait"`
	Latency       HistogramSnapshot `json:"latency"`
}

// TenantSnapshot is a point-in-time copy of the edge-tier counters.
type TenantSnapshot struct {
	Unauthorized uint64                     `json:"unauthorized"`
	PerTenant    map[string]TenantBreakdown `json:"per_tenant,omitempty"`
}

// Snapshot returns a consistent copy of the counters.
func (s *TenantStats) Snapshot() TenantSnapshot {
	if s == nil {
		return TenantSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := TenantSnapshot{Unauthorized: s.unauthorized}
	if len(s.perTenant) > 0 {
		snap.PerTenant = make(map[string]TenantBreakdown, len(s.perTenant))
		for name, c := range s.perTenant {
			snap.PerTenant[name] = TenantBreakdown{
				Admitted:      c.admitted,
				QuotaExceeded: c.quotaExceeded,
				Completed:     c.completed,
				Failed:        c.failed,
				QueueWait:     c.queueWait.Snapshot(),
				Latency:       c.latency.Snapshot(),
			}
		}
	}
	return snap
}

// String renders the snapshot on one line.
func (s TenantSnapshot) String() string {
	var admitted, completed, quota uint64
	for _, t := range s.PerTenant {
		admitted += t.Admitted
		completed += t.Completed
		quota += t.QuotaExceeded
	}
	return fmt.Sprintf("tenants=%d unauth=%d admitted=%d quota_rej=%d done=%d",
		len(s.PerTenant), s.Unauthorized, admitted, quota, completed)
}
