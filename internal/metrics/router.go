package metrics

import (
	"fmt"
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

	submitted  uint64
	throttled  uint64
	noReplicas uint64
	completed  uint64
	failed     uint64

	hedgesLaunched uint64
	hedgeWins      uint64
	losersCanceled uint64
	retries        uint64

	decide  Histogram // policy decision latency
	latency Histogram // admission-to-response latency through the router

	perPolicy  map[string]uint64
	perClass   map[string]*classRouteStats
	perReplica map[string]*replicaRouteStats
}

type classRouteStats struct {
	submitted uint64
	completed uint64
	failed    uint64
	queueWait Histogram
	latency   Histogram
}

type replicaRouteStats struct {
	picked    uint64
	completed uint64
	failed    uint64
	hedges    uint64
	retries   uint64
}

func (s *RouterStats) classLocked(class string) *classRouteStats {
	if s.perClass == nil {
		s.perClass = make(map[string]*classRouteStats)
	}
	c := s.perClass[class]
	if c == nil {
		c = &classRouteStats{}
		s.perClass[class] = c
	}
	return c
}

func (s *RouterStats) replicaLocked(id string) *replicaRouteStats {
	return tracked(&s.perReplica, maxTrackedReplicas, id)
}

// Submitted records one request entering the router under an SLO class.
func (s *RouterStats) Submitted(class string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.submitted++
	s.classLocked(class).submitted++
	s.mu.Unlock()
}

// Throttled records a request rejected by token-bucket admission.
func (s *RouterStats) Throttled() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.throttled++
	s.mu.Unlock()
}

// NoReplicas records a request that found an empty (or fully declined)
// replica set.
func (s *RouterStats) NoReplicas() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.noReplicas++
	s.mu.Unlock()
}

// QueueWait records how long a request waited at the scheduling gate.
func (s *RouterStats) QueueWait(class string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.classLocked(class).queueWait.Observe(d)
	s.mu.Unlock()
}

// Decision records one primary routing decision: the policy that made it,
// the replica it picked, and how long the pick took.
func (s *RouterStats) Decision(policy, replica string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.perPolicy == nil {
		s.perPolicy = make(map[string]uint64)
	}
	s.perPolicy[policy]++
	s.decide.Observe(d)
	s.replicaLocked(replica).picked++
	s.mu.Unlock()
}

// HedgeLaunched records a hedge attempt fired at a straggler deadline.
func (s *RouterStats) HedgeLaunched(replica string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.hedgesLaunched++
	r := s.replicaLocked(replica)
	r.picked++
	r.hedges++
	s.mu.Unlock()
}

// HedgeWon records a hedge attempt beating its primary.
func (s *RouterStats) HedgeWon(replica string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.hedgeWins++
	s.mu.Unlock()
}

// LosersCanceled records n losing attempts canceled after a winner.
func (s *RouterStats) LosersCanceled(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.losersCanceled += uint64(n)
	s.mu.Unlock()
}

// Retried records an immediate error-retry dispatched to a replica.
func (s *RouterStats) Retried(replica string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.retries++
	r := s.replicaLocked(replica)
	r.picked++
	r.retries++
	s.mu.Unlock()
}

// AttemptDone records one replica attempt's outcome (success or failure),
// independent of whether the request as a whole succeeded.
func (s *RouterStats) AttemptDone(replica string, ok bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	r := s.replicaLocked(replica)
	if ok {
		r.completed++
	} else {
		r.failed++
	}
	s.mu.Unlock()
}

// Completed records one request served through the router end to end.
func (s *RouterStats) Completed(class string, total time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.completed++
	s.latency.Observe(total)
	c := s.classLocked(class)
	c.completed++
	c.latency.Observe(total)
	s.mu.Unlock()
}

// Failed records one request that left the router with an error (including
// gate cancellation, dispatch failure on every attempt, or no replicas).
func (s *RouterStats) Failed(class string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.failed++
	s.classLocked(class).failed++
	s.mu.Unlock()
}

// ClassRouteSnapshot is the per-SLO-class slice of a router snapshot.
type ClassRouteSnapshot struct {
	Submitted uint64            `json:"submitted"`
	Completed uint64            `json:"completed"`
	Failed    uint64            `json:"failed"`
	QueueWait HistogramSnapshot `json:"queue_wait"`
	Latency   HistogramSnapshot `json:"latency"`
}

// ReplicaRouteSnapshot is the per-replica slice of a router snapshot.
type ReplicaRouteSnapshot struct {
	Picked    uint64 `json:"picked"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Hedges    uint64 `json:"hedges"`
	Retries   uint64 `json:"retries"`
}

// RouterSnapshot is a point-in-time copy of the routing counters.
type RouterSnapshot struct {
	Submitted  uint64 `json:"submitted"`
	Throttled  uint64 `json:"throttled"`
	NoReplicas uint64 `json:"no_replicas"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`

	HedgesLaunched uint64 `json:"hedges_launched"`
	HedgeWins      uint64 `json:"hedge_wins"`
	LosersCanceled uint64 `json:"losers_canceled"`
	Retries        uint64 `json:"retries"`

	Decide  HistogramSnapshot `json:"decide"`
	Latency HistogramSnapshot `json:"latency"`

	PerPolicy  map[string]uint64               `json:"per_policy,omitempty"`
	PerClass   map[string]ClassRouteSnapshot   `json:"per_class,omitempty"`
	PerReplica map[string]ReplicaRouteSnapshot `json:"per_replica,omitempty"`
}

// Snapshot returns a consistent copy of the counters.
func (s *RouterStats) Snapshot() RouterSnapshot {
	if s == nil {
		return RouterSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := RouterSnapshot{
		Submitted:      s.submitted,
		Throttled:      s.throttled,
		NoReplicas:     s.noReplicas,
		Completed:      s.completed,
		Failed:         s.failed,
		HedgesLaunched: s.hedgesLaunched,
		HedgeWins:      s.hedgeWins,
		LosersCanceled: s.losersCanceled,
		Retries:        s.retries,
		Decide:         s.decide.Snapshot(),
		Latency:        s.latency.Snapshot(),
	}
	if len(s.perPolicy) > 0 {
		snap.PerPolicy = make(map[string]uint64, len(s.perPolicy))
		for k, v := range s.perPolicy {
			snap.PerPolicy[k] = v
		}
	}
	if len(s.perClass) > 0 {
		snap.PerClass = make(map[string]ClassRouteSnapshot, len(s.perClass))
		for k, c := range s.perClass {
			snap.PerClass[k] = ClassRouteSnapshot{
				Submitted: c.submitted,
				Completed: c.completed,
				Failed:    c.failed,
				QueueWait: c.queueWait.Snapshot(),
				Latency:   c.latency.Snapshot(),
			}
		}
	}
	if len(s.perReplica) > 0 {
		snap.PerReplica = make(map[string]ReplicaRouteSnapshot, len(s.perReplica))
		for k, r := range s.perReplica {
			snap.PerReplica[k] = ReplicaRouteSnapshot{
				Picked:    r.picked,
				Completed: r.completed,
				Failed:    r.failed,
				Hedges:    r.hedges,
				Retries:   r.retries,
			}
		}
	}
	return snap
}

// String renders the snapshot on one line.
func (s RouterSnapshot) String() string {
	return fmt.Sprintf(
		"sub=%d thr=%d done=%d fail=%d hedges=%d/%d retries=%d lat=%.2f/%.2fms",
		s.Submitted, s.Throttled, s.Completed, s.Failed,
		s.HedgesLaunched, s.HedgeWins, s.Retries,
		s.Latency.P50MS, s.Latency.P99MS)
}
