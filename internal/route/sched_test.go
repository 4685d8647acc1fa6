package route

import (
	"context"
	"fmt"
	"testing"
	"time"

	"drainnas/internal/metrics"
)

// TestGateCancelEagerlyRemovesWaiters pins the fix for the canceled-waiter
// leak: waiters used to be marked abandoned and reaped lazily in release(),
// so when every slot was stuck on hung replicas (no release ever ran) the
// heap grew without bound under canceling clients. Cancellation must now
// remove the waiter from the heap eagerly — with zero releases.
func TestGateCancelEagerlyRemovesWaiters(t *testing.T) {
	for _, mode := range []SchedMode{FCFS, Priority, SJF} {
		t.Run(mode.String(), func(t *testing.T) {
			g := NewGate(2, mode)
			// Saturate the gate: both slots taken, never released (the
			// "every slot stuck on a hung replica" scenario).
			for i := 0; i < 2; i++ {
				if err := g.Acquire(context.Background(), "", 1, ClassStandard, 0); err != nil {
					t.Fatalf("filling slot %d: %v", i, err)
				}
			}

			const waiters = 10000
			ctx, cancel := context.WithCancel(context.Background())
			errs := make(chan error, waiters)
			for i := 0; i < waiters; i++ {
				class := SLOClass(i % 3)
				est := float64(i % 7)
				go func() { errs <- g.Acquire(ctx, "", 1, class, est) }()
			}
			// Quiescence wait: every waiter parked in the heap before the
			// cancellation storm.
			deadline := time.Now().Add(10 * time.Second)
			for g.Waiting() < waiters {
				if time.Now().After(deadline) {
					t.Fatalf("only %d/%d waiters parked", g.Waiting(), waiters)
				}
				time.Sleep(100 * time.Microsecond)
			}

			cancel()
			for i := 0; i < waiters; i++ {
				if err := <-errs; err != context.Canceled {
					t.Fatalf("waiter returned %v, want context.Canceled", err)
				}
			}

			// No release ever ran; the heap must still be empty.
			if n := g.Waiting(); n != 0 {
				t.Fatalf("waiting() = %d after canceling every waiter, want 0", n)
			}
			g.mu.Lock()
			heapLen, inUse := g.core.Waiting(), g.core.InUse()
			g.mu.Unlock()
			if heapLen != 0 {
				t.Fatalf("heap holds %d waiters after cancellation, want 0", heapLen)
			}
			if inUse != 2 {
				t.Fatalf("inUse = %d, want the 2 hung slots", inUse)
			}

			// The gate still works once the hung slots free up.
			done := make(chan error, 1)
			go func() { done <- g.Acquire(context.Background(), "", 1, ClassInteractive, 0) }()
			g.Release()
			if err := <-done; err != nil {
				t.Fatalf("acquire after release: %v", err)
			}
		})
	}
}

// TestGateGrantRacingCancelHandsSlotOn keeps the grant-races-cancel
// hand-off honest next to the eager-removal path: a waiter granted between
// its cancellation firing and it taking the gate lock must pass the slot to
// the next waiter rather than leak it.
func TestGateGrantRacingCancelHandsSlotOn(t *testing.T) {
	g := NewGate(1, FCFS)
	if err := g.Acquire(context.Background(), "", 1, ClassStandard, 0); err != nil {
		t.Fatalf("filling slot: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() { first <- g.Acquire(ctx, "", 1, ClassStandard, 0) }()
	awaitWaiting(t, g, 1)

	// Grant, then cancel before the waiter can observe the grant.
	g.Release() // grants the waiter: in-use back to 1, heap empty
	cancel()
	if err := <-first; err != nil && err != context.Canceled {
		t.Fatalf("first waiter: %v", err)
	}

	// Whether the waiter returned the grant (canceled) or kept it (won the
	// select race), exactly one slot's worth of capacity must exist: a
	// second acquire succeeds after at most one release.
	second := make(chan error, 1)
	go func() { second <- g.Acquire(context.Background(), "", 1, ClassStandard, 0) }()
	select {
	case err := <-second:
		if err != nil {
			t.Fatalf("second acquire: %v", err)
		}
	case <-time.After(50 * time.Millisecond):
		g.Release()
		if err := <-second; err != nil {
			t.Fatalf("second acquire after release: %v", err)
		}
	}
}

func awaitWaiting(t *testing.T, g *Gate, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Waiting() < n {
		if time.Now().After(deadline) {
			t.Fatalf("gate never reached %d waiters (have %d)", n, g.Waiting())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestLatencyEstimatorCapsEWMAMap pins the fix for the unbounded
// measured-EWMA map: adversarial client-supplied model names must aggregate
// under the overflow key past maxTrackedEstimates, the same degradation the
// per-model serving stats use.
func TestLatencyEstimatorCapsEWMAMap(t *testing.T) {
	e := newLatencyEstimator(map[string]float64{"seeded": 7.5})

	for i := 0; i < 500; i++ {
		e.observeMS(fmt.Sprintf("adversarial-%d", i), float64(10+i%5))
	}

	e.mu.Lock()
	n := len(e.ewma)
	_, hasOverflow := e.ewma[metrics.OverflowModelKey]
	e.mu.Unlock()
	if n > maxTrackedEstimates+1 {
		t.Fatalf("ewma map grew to %d entries, cap is %d + overflow", n, maxTrackedEstimates)
	}
	if !hasOverflow {
		t.Fatal("overflow key absent after exceeding the cap")
	}

	// Models tracked before the cap keep their own estimate.
	if got := e.estimateMS("adversarial-0"); got < 10 || got > 15 {
		t.Fatalf("pre-cap model estimate %.2f, want its own EWMA in [10,15]", got)
	}
	// Models past the cap share the overflow estimate (non-zero: SJF still
	// has a signal, just a blended one).
	if got := e.estimateMS("adversarial-499"); got <= 0 {
		t.Fatalf("post-cap model estimate %.2f, want blended overflow > 0", got)
	}
	// A seeded-but-overflowed model prefers its real seed over the blend.
	if got := e.estimateMS("seeded"); got != 7.5 {
		t.Fatalf("seeded model estimate %.2f, want seed 7.5", got)
	}
	// A never-seen model with no seed estimates 0 only while the map is
	// under the cap; past it, the overflow blend stands in.
	if got := e.estimateMS("never-seen"); got <= 0 {
		t.Fatalf("unknown model estimate %.2f, want overflow blend > 0", got)
	}
}
