package metrics

import (
	"maps"
	"math"
	"sync"
	"time"
)

// maxTrackedReplicas bounds the per-replica breakdown the same way
// maxTrackedModels bounds per-model serving stats: replica IDs are
// operator-chosen, but a misconfigured fleet generator should degrade to an
// overflow bucket, not an unbounded map.
const maxTrackedReplicas = 64

// RouterStats aggregates the routing tier's counters: admission outcomes,
// per-SLO-class lifecycle counts and queue-wait histograms, per-policy
// decision counts with a decision-latency histogram, hedging outcomes, and
// a per-replica breakdown of picks/completions/failures/hedges. All methods
// are safe for concurrent use and no-ops on a nil receiver.
type RouterStats struct {
	mu sync.Mutex
	// c is the snapshot's counters and PerPolicy; Snapshot fills in the rest.
	c RouterSnapshot

	decide, latency Histogram

	perClass   map[string]*classRoute
	perReplica map[string]*ReplicaRouteSnapshot
}

// classRoute is one SLO class's counters with the live histograms behind
// their QueueWait and Latency.
type classRoute struct {
	ClassRouteSnapshot
	queueWait, latency Histogram
}

func (c *classRoute) snapshot() ClassRouteSnapshot {
	snap := c.ClassRouteSnapshot
	snap.QueueWait, snap.Latency = c.queueWait.Snapshot(), c.latency.Snapshot()
	return snap
}

// locked runs f under the lock; a nil sink runs nothing.
func (s *RouterStats) locked(f func()) {
	if s == nil {
		return
	}
	s.mu.Lock()
	f()
	s.mu.Unlock()
}

// class and replica return the sink for one key; the caller holds s.mu.
// Classes are a closed set and need no cap.
func (s *RouterStats) class(class string) *classRoute {
	return tracked(&s.perClass, math.MaxInt, class)
}

func (s *RouterStats) replica(id string) *ReplicaRouteSnapshot {
	return tracked(&s.perReplica, maxTrackedReplicas, id)
}

// Submitted records one request entering the router under an SLO class.
func (s *RouterStats) Submitted(class string) {
	s.locked(func() {
		s.c.Submitted++
		s.class(class).Submitted++
	})
}

// Throttled records a request rejected by token-bucket admission.
func (s *RouterStats) Throttled() {
	s.locked(func() { s.c.Throttled++ })
}

// NoReplicas records a request that found an empty (or fully declined)
// replica set.
func (s *RouterStats) NoReplicas() {
	s.locked(func() { s.c.NoReplicas++ })
}

// QueueWait records how long a request waited at the scheduling gate.
func (s *RouterStats) QueueWait(class string, d time.Duration) {
	s.locked(func() { s.class(class).queueWait.Observe(d) })
}

// Decision records one primary routing decision: the policy that made it,
// the replica it picked, and how long the pick took.
func (s *RouterStats) Decision(policy, replica string, d time.Duration) {
	s.locked(func() {
		if s.c.PerPolicy == nil {
			s.c.PerPolicy = make(map[string]uint64)
		}
		s.c.PerPolicy[policy]++
		s.decide.Observe(d)
		s.replica(replica).Picked++
	})
}

// HedgeLaunched records a hedge attempt fired at a straggler deadline.
func (s *RouterStats) HedgeLaunched(replica string) {
	s.locked(func() {
		s.c.HedgesLaunched++
		r := s.replica(replica)
		r.Picked++
		r.Hedges++
	})
}

// HedgeWon records a hedge attempt beating its primary.
func (s *RouterStats) HedgeWon(replica string) {
	s.locked(func() { s.c.HedgeWins++ })
}

// LosersCanceled records n losing attempts canceled after a winner.
func (s *RouterStats) LosersCanceled(n int) {
	s.locked(func() { s.c.LosersCanceled += uint64(n) })
}

// Retried records an immediate error-retry dispatched to a replica.
func (s *RouterStats) Retried(replica string) {
	s.locked(func() {
		s.c.Retries++
		r := s.replica(replica)
		r.Picked++
		r.Retries++
	})
}

// AttemptDone records one replica attempt's outcome (success or failure),
// independent of whether the request as a whole succeeded.
func (s *RouterStats) AttemptDone(replica string, ok bool) {
	s.locked(func() {
		if r := s.replica(replica); ok {
			r.Completed++
		} else {
			r.Failed++
		}
	})
}

// Completed records one request served through the router end to end.
func (s *RouterStats) Completed(class string, total time.Duration) {
	s.locked(func() {
		s.c.Completed++
		s.latency.Observe(total)
		c := s.class(class)
		c.Completed++
		c.latency.Observe(total)
	})
}

// Failed records one request that left the router with an error (including
// gate cancellation, dispatch failure on every attempt, or no replicas).
func (s *RouterStats) Failed(class string) {
	s.locked(func() {
		s.c.Failed++
		s.class(class).Failed++
	})
}

// ClassRouteSnapshot is the per-SLO-class slice of a router snapshot.
type ClassRouteSnapshot struct {
	Submitted uint64            `json:"submitted" prom:"drainnas_router_class_requests_total,outcome=submitted" help:"Per-SLO-class requests by outcome."`
	Completed uint64            `json:"completed" prom:"drainnas_router_class_requests_total,outcome=completed"`
	Failed    uint64            `json:"failed" prom:"drainnas_router_class_requests_total,outcome=failed"`
	QueueWait HistogramSnapshot `json:"queue_wait" prom:"drainnas_router_class_queue_wait_seconds" help:"Per-SLO-class wait at the scheduling gate."`
	Latency   HistogramSnapshot `json:"latency" prom:"drainnas_router_class_latency_seconds" help:"Per-SLO-class end-to-end latency."`
}

// ReplicaRouteSnapshot is the per-replica slice of a router snapshot.
type ReplicaRouteSnapshot struct {
	Picked    uint64 `json:"picked" prom:"drainnas_router_replica_attempts_total,outcome=picked" help:"Per-replica attempts by outcome."`
	Completed uint64 `json:"completed" prom:"drainnas_router_replica_attempts_total,outcome=completed"`
	Failed    uint64 `json:"failed" prom:"drainnas_router_replica_attempts_total,outcome=failed"`
	Hedges    uint64 `json:"hedges" prom:"drainnas_router_replica_attempts_total,outcome=hedged"`
	Retries   uint64 `json:"retries" prom:"drainnas_router_replica_attempts_total,outcome=retried"`
}

// RouterSnapshot is a point-in-time copy of the routing counters.
type RouterSnapshot struct {
	Submitted  uint64 `json:"submitted" prom:"drainnas_router_requests_total,outcome=submitted" help:"Routed requests by outcome."`
	Throttled  uint64 `json:"throttled" prom:"drainnas_router_requests_total,outcome=throttled"`
	NoReplicas uint64 `json:"no_replicas" prom:"drainnas_router_requests_total,outcome=no_replicas"`
	Completed  uint64 `json:"completed" prom:"drainnas_router_requests_total,outcome=completed"`
	Failed     uint64 `json:"failed" prom:"drainnas_router_requests_total,outcome=failed"`

	HedgesLaunched uint64 `json:"hedges_launched" prom:"drainnas_router_hedges_total" help:"Hedge attempts launched at straggler deadlines."`
	HedgeWins      uint64 `json:"hedge_wins" prom:"drainnas_router_hedge_wins_total" help:"Hedge attempts that beat their primary."`
	LosersCanceled uint64 `json:"losers_canceled" prom:"drainnas_router_losers_canceled_total" help:"Losing attempts canceled after a winner."`
	Retries        uint64 `json:"retries" prom:"drainnas_router_retries_total" help:"Immediate error-retries dispatched."`

	Decide  HistogramSnapshot `json:"decide" prom:"drainnas_router_decide_seconds" help:"Policy decision latency."`
	Latency HistogramSnapshot `json:"latency" prom:"drainnas_router_latency_seconds" help:"End-to-end latency through the router." quantiles:"drainnas_router_latency_quantile_seconds" qhelp:"Router end-to-end latency quantiles from the streaming histogram."`

	PerPolicy  map[string]uint64               `json:"per_policy,omitempty" label:"policy" prom:"drainnas_router_decisions_total" help:"Routing decisions by policy."`
	PerClass   map[string]ClassRouteSnapshot   `json:"per_class,omitempty" label:"class"`
	PerReplica map[string]ReplicaRouteSnapshot `json:"per_replica,omitempty" label:"replica"`
}

// Snapshot returns a consistent copy of the counters.
func (s *RouterStats) Snapshot() (snap RouterSnapshot) {
	s.locked(func() {
		snap = s.c
		snap.Decide, snap.Latency = s.decide.Snapshot(), s.latency.Snapshot()
		snap.PerPolicy = maps.Clone(s.c.PerPolicy)
		snap.PerClass = copyMap(s.perClass, (*classRoute).snapshot)
		snap.PerReplica = copyMap(s.perReplica, func(r *ReplicaRouteSnapshot) ReplicaRouteSnapshot { return *r })
	})
	return snap
}
