package route

import (
	"context"
	"fmt"
	"sync"

	"drainnas/internal/metrics"
	"drainnas/internal/sched"
)

// SLOClass is a request's service-level class and SchedMode the order
// waiting requests are dispatched in. Both live in internal/sched, beside
// the heap that ranks by them; the routing tier keeps its historical names.
type (
	SLOClass  = sched.Class
	SchedMode = sched.Mode
)

// The three classes (interactive preempts standard preempts batch under
// the Priority scheduler; the zero value is ClassStandard) and the three
// dispatch orders.
const (
	ClassStandard    = sched.ClassStandard
	ClassBatch       = sched.ClassBatch
	ClassInteractive = sched.ClassInteractive

	FCFS     = sched.FCFS
	Priority = sched.Priority
	// SJF estimates come from latmeter predictions seeded at startup,
	// refined by a measured EWMA.
	SJF = sched.SJF
)

// ParseClass maps the wire name to a class; empty means standard.
func ParseClass(s string) (SLOClass, error) {
	switch s {
	case "", "standard":
		return ClassStandard, nil
	case "batch":
		return ClassBatch, nil
	case "interactive":
		return ClassInteractive, nil
	default:
		return ClassStandard, fmt.Errorf("route: unknown SLO class %q (want batch, standard or interactive)", s)
	}
}

// ParseSchedMode maps the flag name to a mode; empty means FCFS.
func ParseSchedMode(s string) (SchedMode, error) {
	switch s {
	case "", "fcfs":
		return FCFS, nil
	case "priority":
		return Priority, nil
	case "sjf":
		return SJF, nil
	default:
		return FCFS, fmt.Errorf("route: unknown scheduler %q (want fcfs, priority or sjf)", s)
	}
}

// gate is the router's dispatch gate: the shared sched.Gate behind a mutex,
// each parked request blocked on a ready channel that is closed when the
// core grants it a slot. A nil gate is unlimited.
type gate struct {
	mu   sync.Mutex
	core *sched.Gate[chan struct{}]
}

func newGate(capacity int, mode SchedMode) *gate {
	if capacity <= 0 {
		return nil
	}
	return &gate{core: sched.NewGate[chan struct{}](capacity, mode)}
}

// acquire blocks until the request is granted a dispatch slot in scheduler
// order, or ctx ends. A grant that races a cancellation is handed on to the
// next waiter, never lost.
func (g *gate) acquire(ctx context.Context, class SLOClass, estMS float64) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	w, granted := g.core.Acquire(class, estMS)
	if granted {
		g.mu.Unlock()
		return nil
	}
	w.Value = make(chan struct{})
	g.mu.Unlock()

	select {
	case <-w.Value:
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		if next := g.core.Cancel(w); next != nil {
			close(next.Value)
		}
		g.mu.Unlock()
		return ctx.Err()
	}
}

// release returns a slot and wakes the waiter the core grants it to.
func (g *gate) release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	if next := g.core.Release(); next != nil {
		close(next.Value)
	}
	g.mu.Unlock()
}

// waiting reports how many requests are parked at the gate.
func (g *gate) waiting() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.core.Waiting()
}

// latencyEstimator supplies the SJF scheduler's per-model latency estimate:
// a static seed (typically latmeter predictions computed from each model's
// compiled plan at startup) overlaid by an exponentially-weighted moving
// average of measured end-to-end latency, so estimates self-correct as real
// traffic flows. Unknown models estimate 0, degrading SJF to FCFS for them.
//
// The EWMA map is keyed by client-supplied model names, so — exactly like
// the per-model serving stats — it is capped: once maxTrackedEstimates
// distinct names have been observed, further names share one overflow
// entry (metrics.OverflowModelKey) instead of growing the map forever
// under adversarial model names. The seed map is operator-provided at
// startup and needs no cap.
type latencyEstimator struct {
	mu   sync.Mutex
	seed map[string]float64
	ewma map[string]float64
}

// ewmaAlpha weights new observations; 0.2 smooths batch-size and cache
// noise while still tracking drift within a few dozen requests.
const ewmaAlpha = 0.2

// maxTrackedEstimates bounds the measured-EWMA map, matching the
// per-replica cap in metrics.RouterStats.
const maxTrackedEstimates = 64

func newLatencyEstimator(seed map[string]float64) *latencyEstimator {
	e := &latencyEstimator{seed: make(map[string]float64, len(seed)), ewma: map[string]float64{}}
	for k, v := range seed {
		e.seed[k] = v
	}
	return e
}

func (e *latencyEstimator) estimateMS(model string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ms, ok := e.ewma[model]; ok {
		return ms
	}
	if ms, ok := e.seed[model]; ok {
		// A real per-model prediction beats the blended overflow bucket.
		return ms
	}
	// Zero for a model the map still has room for, the blended overflow
	// estimate once it does not.
	return e.ewma[metrics.CapKey(e.ewma, maxTrackedEstimates, model)]
}

func (e *latencyEstimator) observeMS(model string, ms float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := metrics.CapKey(e.ewma, maxTrackedEstimates, model)
	if prev, ok := e.ewma[key]; ok {
		e.ewma[key] = prev + ewmaAlpha*(ms-prev)
	} else {
		e.ewma[key] = ms
	}
}
