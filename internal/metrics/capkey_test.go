package metrics

import (
	"fmt"
	"testing"
	"time"
)

// TestCapKeyOverflow pins the one capped key set: the first max keys keep
// a sink of their own, every later key shares OverflowKey's, and a key
// tracked before the cap keeps being itself after it. The three stats
// families that break down by a caller-chosen string are then each driven
// past their cap through their public surface, counters and histograms
// alike, to show they are wired to it.
func TestCapKeyOverflow(t *testing.T) {
	var m map[string]*int
	for i := 0; i < 3+5; i++ {
		*tracked(&m, 3, fmt.Sprintf("k%d", i))++
	}
	*tracked(&m, 3, "k0")++
	if len(m) != 3+1 || *m["k0"] != 2 || *m["k2"] != 1 || *m[OverflowKey] != 5 {
		t.Fatalf("tracked 3 keys of 8: %d entries, k0=%d k2=%d overflow=%d; want 4, 2, 1, 5",
			len(m), *m["k0"], *m["k2"], *m[OverflowKey])
	}
	if got := CapKey(m, 3, "never-seen"); got != OverflowKey {
		t.Fatalf("CapKey past the cap = %q, want %q", got, OverflowKey)
	}

	const extra = 30
	serving, router, tenant := &ServingStats{}, &RouterStats{}, &TenantStats{}
	for i := 0; i < maxTrackedModels+extra; i++ {
		serving.Enqueued(fmt.Sprintf("junk-%d", i))
		serving.Failed(fmt.Sprintf("junk-%d", i))
	}
	for i := 0; i < maxTrackedReplicas+extra; i++ {
		router.Decision("round-robin", fmt.Sprintf("ephemeral-%d", i), time.Microsecond)
	}
	for i := 0; i < maxTrackedTenants+extra; i++ {
		tenant.Admitted(fmt.Sprintf("tenant-%d", i))
		tenant.QuotaExceeded(fmt.Sprintf("tenant-%d", i))
	}
	tenant.Completed("tenant-9999", time.Millisecond, time.Millisecond)

	sm, rm, tm := serving.Snapshot().PerModel, router.Snapshot().PerReplica, tenant.Snapshot().PerTenant
	if len(sm) != maxTrackedModels+1 || sm[OverflowModelKey].Failed != extra {
		t.Errorf("per-model: %d entries, overflow %+v; want cap %d + overflow with %d failures", len(sm), sm[OverflowModelKey], maxTrackedModels, extra)
	}
	if len(rm) != maxTrackedReplicas+1 || rm[OverflowKey].Picked != extra {
		t.Errorf("per-replica: %d entries, overflow %+v; want cap %d + overflow with %d picks", len(rm), rm[OverflowKey], maxTrackedReplicas, extra)
	}
	over := tm[OverflowKey]
	if len(tm) != maxTrackedTenants+1 || over.Admitted != extra || over.QuotaExceeded != extra || over.Latency.Count != 1 {
		t.Errorf("per-tenant: %d entries, overflow %+v; want cap %d + overflow with %d admitted, %d quota-rejected, 1 latency sample",
			len(tm), over, maxTrackedTenants, extra, extra)
	}
	if first := tm["tenant-0"]; first.Admitted != 1 {
		t.Errorf("pre-cap tenant lost its counters: %+v", first)
	}
}
