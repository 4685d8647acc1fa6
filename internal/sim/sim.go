// Package sim is a deterministic discrete-event simulator of the
// servd/router serving pipeline, closing the loop the paper leaves open
// between predicted and measured latency at the *serving* tier: given the
// analytic per-model cost models from internal/latmeter and the scheduling
// cores internal/serve and internal/route themselves run (internal/sched),
// it answers capacity questions — "how many replicas for this traffic at
// p99 < 50ms?" — without hardware.
//
// A simulated request flows through the same stages a real one does:
//
//	arrival → admission (token bucket + SLO scheduling gate)
//	        → replica placement (round-robin / least-loaded / affinity)
//	        → batch formation (MaxDelay / MaxBatch, per model and chip size)
//	        → execution slots (Workers per replica, parked batches in cut order)
//	        → plan execution (latmeter service models, fp32 and "@int8")
//	        → response
//
// Every decision but one is the live tiers' own code: admission, the
// router's gate, batch formation and each replica's execution slots are
// sched.Bucket, sched.Gate and sched.Former called with virtual time, and
// placement is the router's route.Policy picking over simulated replicas.
// Only QueueCap rejection is modelled here; replica churn, tenant fairness
// and hedged retries are not simulated.
//
// Everything runs off a virtual clock (Loop): events are processed in
// (time, schedule-order) sequence, all randomness comes from seeded
// tensor.RNG streams, and reports render with fixed formatting — so the
// same seed (or the same recorded trace) produces a byte-identical report,
// the property the `make sim-replay` CI gate diffs for.
//
// The package also owns the serving-trace format (trace.go): servd records
// live arrivals as JSONL with -trace, and the same file replays into the
// simulator (TraceArrivals + Run) against any candidate configuration. calibrate.go fits the simulator's two
// service-time scales to measured /v1/stats histograms and reports MAPE and
// Pearson r of simulated vs measured p50/p95/p99.
package sim

import (
	"container/heap"
	"time"
)

// event is one scheduled state transition: a callback pinned to a virtual
// instant, ordered by (at, seq) so simultaneous events run in the order
// they were scheduled — the total order determinism rests on.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Loop is the discrete-event core: a virtual clock that only moves when the
// next event is taken off the queue. It is single-goroutine by design — the
// determinism comes from there being exactly one timeline.
type Loop struct {
	now time.Duration
	seq uint64
	pq  eventHeap
}

// NewLoop returns a loop at virtual time 0 with an empty queue.
func NewLoop() *Loop { return &Loop{} }

// Now returns the current virtual time.
func (l *Loop) Now() time.Duration { return l.now }

// At schedules fn at absolute virtual time t; times in the past clamp to
// now (the event still runs, immediately after the current one).
func (l *Loop) At(t time.Duration, fn func()) {
	if t < l.now {
		t = l.now
	}
	heap.Push(&l.pq, &event{at: t, seq: l.seq, fn: fn})
	l.seq++
}

// After schedules fn d past the current virtual time.
func (l *Loop) After(d time.Duration, fn func()) { l.At(l.now+d, fn) }

// Run processes events in order until the queue empties or the next event
// lies beyond until (until 0 = drain everything). The clock finishes at
// until when a horizon is given, so utilization denominators are stable.
func (l *Loop) Run(until time.Duration) {
	for l.pq.Len() > 0 {
		next := l.pq[0]
		if until > 0 && next.at > until {
			break
		}
		heap.Pop(&l.pq)
		l.now = next.at
		next.fn()
	}
	if until > l.now {
		l.now = until
	}
}
