package metrics

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTenantStatsLifecycle(t *testing.T) {
	s := &TenantStats{}
	s.Unauthorized()
	s.Unauthorized()
	s.Admitted("acme")
	s.Completed("acme", time.Millisecond, 5*time.Millisecond)
	s.Admitted("acme")
	s.Failed("acme", time.Millisecond, 2*time.Millisecond)
	s.QuotaExceeded("noisy")
	s.Admitted("noisy")
	s.Completed("noisy", 2*time.Millisecond, 9*time.Millisecond)

	snap := s.Snapshot()
	if snap.Unauthorized != 2 {
		t.Fatalf("unauthorized %d, want 2", snap.Unauthorized)
	}
	acme, noisy := snap.PerTenant["acme"], snap.PerTenant["noisy"]
	if acme.Admitted != 2 || acme.Completed != 1 || acme.Failed != 1 || acme.QuotaExceeded != 0 {
		t.Fatalf("acme %+v", acme)
	}
	if noisy.Admitted != 1 || noisy.QuotaExceeded != 1 || noisy.Completed != 1 {
		t.Fatalf("noisy %+v", noisy)
	}
	if acme.Latency.Count != 2 || acme.QueueWait.Count != 2 {
		t.Fatalf("acme histograms: lat=%d wait=%d, want 2/2", acme.Latency.Count, acme.QueueWait.Count)
	}
	if noisy.Latency.Max != 9*time.Millisecond {
		t.Fatalf("noisy latency max %v", noisy.Latency.Max)
	}
}

func TestTenantStatsNilReceiverIsSafe(t *testing.T) {
	var s *TenantStats
	s.Unauthorized()
	s.Admitted("x")
	s.QuotaExceeded("x")
	s.Completed("x", time.Millisecond, time.Millisecond)
	s.Failed("x", time.Millisecond, time.Millisecond)
	if snap := s.Snapshot(); snap.Unauthorized != 0 || len(snap.PerTenant) != 0 {
		t.Fatalf("nil snapshot %+v", snap)
	}
}

func TestTenantStatsConcurrent(t *testing.T) {
	s := &TenantStats{}
	const goroutines = 8
	const per = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", g%3)
			for i := 0; i < per; i++ {
				s.Admitted(name)
				if i%2 == 0 {
					s.Completed(name, time.Microsecond, 2*time.Microsecond)
				} else {
					s.Failed(name, time.Microsecond, time.Microsecond)
				}
				_ = s.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	snap := s.Snapshot()
	var admitted, done uint64
	for _, c := range snap.PerTenant {
		admitted += c.Admitted
		done += c.Completed + c.Failed
	}
	if admitted != goroutines*per || done != admitted {
		t.Fatalf("accounting broken: admitted=%d done=%d want %d", admitted, done, goroutines*per)
	}
}

// TestTenantSnapshotWriteProm holds the tenant families to the exposition
// validator and pins the family names the README documents.
func TestTenantSnapshotWriteProm(t *testing.T) {
	s := &TenantStats{}
	s.Unauthorized()
	s.Admitted("acme")
	s.Completed("acme", time.Millisecond, 3*time.Millisecond)
	s.QuotaExceeded("noisy")

	var buf bytes.Buffer
	e := NewExpositionWriter(&buf)
	e.Write(s.Snapshot())
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	page := buf.Bytes()
	if err := ValidateExposition(bytes.NewReader(page)); err != nil {
		t.Fatalf("tenant exposition invalid: %v\n%s", err, page)
	}
	for _, want := range []string{
		"drainnas_tenant_unauthorized_total 1",
		`drainnas_tenant_requests_total{tenant="acme",outcome="completed"} 1`,
		`drainnas_tenant_requests_total{tenant="noisy",outcome="quota_exceeded"} 1`,
		`drainnas_tenant_queue_wait_seconds_bucket{tenant="acme",`,
		`drainnas_tenant_latency_seconds_count{tenant="noisy"} 0`,
	} {
		if !bytes.Contains(page, []byte(want)) {
			t.Fatalf("exposition missing %q:\n%s", want, page)
		}
	}
}
