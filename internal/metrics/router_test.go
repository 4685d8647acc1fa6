package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRouterStatsLifecycle(t *testing.T) {
	s := &RouterStats{}
	s.Submitted("standard")
	s.Submitted("standard")
	s.Submitted("interactive")
	s.Submitted("batch")
	s.Throttled()
	s.NoReplicas()

	s.Decision("round-robin", "r0", time.Microsecond)
	s.Decision("round-robin", "r1", time.Microsecond)
	s.QueueWait("standard", 2*time.Millisecond)
	s.HedgeLaunched("r1")
	s.HedgeWon("r1")
	s.LosersCanceled(1)
	s.Retried("r0")
	s.AttemptDone("r0", false)
	s.AttemptDone("r0", true)
	s.AttemptDone("r1", true)
	s.Completed("standard", 10*time.Millisecond)
	s.Completed("interactive", 4*time.Millisecond)
	s.Failed("batch")

	snap := s.Snapshot()
	if snap.Submitted != 4 || snap.Throttled != 1 || snap.NoReplicas != 1 {
		t.Fatalf("admission counters: %+v", snap)
	}
	if snap.Completed != 2 || snap.Failed != 1 {
		t.Fatalf("lifecycle counters: %+v", snap)
	}
	if snap.HedgesLaunched != 1 || snap.HedgeWins != 1 || snap.LosersCanceled != 1 || snap.Retries != 1 {
		t.Fatalf("hedge counters: %+v", snap)
	}
	if snap.PerPolicy["round-robin"] != 2 {
		t.Fatalf("per-policy: %v", snap.PerPolicy)
	}
	if snap.Decide.Count != 2 || snap.Latency.Count != 2 {
		t.Fatalf("histogram counts: decide=%d latency=%d", snap.Decide.Count, snap.Latency.Count)
	}

	std := snap.PerClass["standard"]
	if std.Submitted != 2 || std.Completed != 1 || std.QueueWait.Count != 1 || std.Latency.Count != 1 {
		t.Fatalf("standard class: %+v", std)
	}
	if b := snap.PerClass["batch"]; b.Failed != 1 || b.Completed != 0 {
		t.Fatalf("batch class: %+v", b)
	}

	// r0: 1 policy pick + 1 retry pick, 1 completed, 1 failed.
	r0 := snap.PerReplica["r0"]
	if r0.Picked != 2 || r0.Completed != 1 || r0.Failed != 1 || r0.Retries != 1 {
		t.Fatalf("r0: %+v", r0)
	}
	// r1: 1 policy pick + 1 hedge pick, 1 completed.
	r1 := snap.PerReplica["r1"]
	if r1.Picked != 2 || r1.Completed != 1 || r1.Hedges != 1 {
		t.Fatalf("r1: %+v", r1)
	}
}

func TestRouterStatsNilReceiverIsSafe(t *testing.T) {
	var s *RouterStats
	s.Submitted("standard")
	s.Throttled()
	s.NoReplicas()
	s.QueueWait("standard", time.Millisecond)
	s.Decision("rr", "r0", time.Microsecond)
	s.HedgeLaunched("r0")
	s.HedgeWon("r0")
	s.LosersCanceled(1)
	s.Retried("r0")
	s.AttemptDone("r0", true)
	s.Completed("standard", time.Millisecond)
	s.Failed("standard")
	if snap := s.Snapshot(); snap.Submitted != 0 {
		t.Fatalf("nil snapshot %+v", snap)
	}
}

func TestRouterStatsConcurrent(t *testing.T) {
	s := &RouterStats{}
	const goroutines = 8
	const per = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			class := []string{"batch", "standard", "interactive"}[g%3]
			replica := fmt.Sprintf("r%d", g%3)
			for i := 0; i < per; i++ {
				s.Submitted(class)
				s.Decision("round-robin", replica, time.Microsecond)
				if i%2 == 0 {
					s.AttemptDone(replica, true)
					s.Completed(class, time.Millisecond)
				} else {
					s.AttemptDone(replica, false)
					s.Failed(class)
				}
				_ = s.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Submitted != goroutines*per {
		t.Fatalf("submitted %d, want %d", snap.Submitted, goroutines*per)
	}
	if snap.Completed+snap.Failed != snap.Submitted {
		t.Fatalf("accounting broken: %+v", snap)
	}
	var perClass uint64
	for _, c := range snap.PerClass {
		perClass += c.Submitted
	}
	if perClass != snap.Submitted {
		t.Fatalf("per-class submitted sum %d != global %d", perClass, snap.Submitted)
	}
	var attempts uint64
	for _, r := range snap.PerReplica {
		attempts += r.Completed + r.Failed
	}
	if attempts != snap.Submitted {
		t.Fatalf("per-replica attempt sum %d != global %d", attempts, snap.Submitted)
	}
}

// TestRouterSnapshotWriteProm pins that the router exposition is
// well-formed: family contiguity, sorted labels, and every per-class and
// per-replica family present.
func TestRouterSnapshotWriteProm(t *testing.T) {
	s := &RouterStats{}
	s.Submitted("standard")
	s.Submitted("interactive")
	s.Decision("least-loaded", "r1", time.Microsecond)
	s.Decision("round-robin", "r0", time.Microsecond)
	s.QueueWait("standard", time.Millisecond)
	s.HedgeLaunched("r0")
	s.HedgeWon("r0")
	s.LosersCanceled(1)
	s.Retried("r1")
	s.Completed("standard", 5*time.Millisecond)
	s.Failed("interactive")

	var sb strings.Builder
	e := NewExpositionWriter(&sb)
	e.Write(s.Snapshot())
	if err := e.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	out := sb.String()
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, out)
	}
	for _, want := range []string{
		`drainnas_router_requests_total{outcome="submitted"} 2`,
		`drainnas_router_requests_total{outcome="completed"} 1`,
		`drainnas_router_hedges_total 1`,
		`drainnas_router_hedge_wins_total 1`,
		`drainnas_router_losers_canceled_total 1`,
		`drainnas_router_retries_total 1`,
		`drainnas_router_decisions_total{policy="least-loaded"} 1`,
		`drainnas_router_decisions_total{policy="round-robin"} 1`,
		`drainnas_router_class_requests_total{class="standard",outcome="completed"} 1`,
		`drainnas_router_class_requests_total{class="interactive",outcome="failed"} 1`,
		`replica="r0"`,
		`replica="r1"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
