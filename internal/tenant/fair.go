package tenant

import (
	"context"
	"sync"

	"drainnas/internal/route"
	"drainnas/internal/sched"
)

// FairQueue is the weighted-fair admission gate in front of the serving
// mux: a counting semaphore of dispatch slots whose waiters are organized
// into per-tenant queues and granted by stride scheduling — the classic
// deterministic cousin of weighted-fair queueing. Each tenant carries a
// virtual "pass"; a grant always goes to the backlogged tenant with the
// smallest pass, and the winner's pass advances by passScale/weight. Over
// any contention interval a tenant therefore receives service proportional
// to its weight no matter how deep another tenant's backlog grows: a noisy
// tenant flooding 10x its share only queues behind itself.
//
// Within one tenant's queue, waiters sit in the same sched.Heap the routing
// tier's dispatch gate uses, in Priority order (interactive > standard >
// batch, then arrival) — so the fairness tier composes with the SLO
// scheduling the routing tier already does, instead of fighting it.
//
// A newly-active tenant starts at the queue's current virtual time (never
// earlier), so idle periods bank no credit and cannot be weaponized into a
// burst that starves active tenants.
//
// A nil *FairQueue is an unlimited gate: every Acquire succeeds
// immediately. All methods are safe for concurrent use.
type FairQueue struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	seq      uint64
	waiting  int
	vtime    float64
	tenants  map[string]*tenantQueue
}

// passScale is the stride numerator; any positive constant works, it only
// sets the resolution of pass arithmetic.
const passScale = 1.0

type tenantQueue struct {
	weight float64
	pass   float64
	// pq holds the tenant's parked requests, each blocked on its ready
	// channel, by (class rank desc, arrival asc).
	pq sched.Heap[chan struct{}]
}

// NewFairQueue builds a fair gate with the given number of concurrent
// dispatch slots; capacity <= 0 returns nil (unlimited).
func NewFairQueue(capacity int) *FairQueue {
	if capacity <= 0 {
		return nil
	}
	return &FairQueue{capacity: capacity, tenants: make(map[string]*tenantQueue)}
}

// tenantLocked returns the queue for name, creating it at the current
// virtual time. The weight is refreshed on every call so a key-file reload
// takes effect without restarting. The map is keyed by authenticated tenant
// names only, so its size is bounded by the key file.
func (q *FairQueue) tenantLocked(name string, weight float64) *tenantQueue {
	tq := q.tenants[name]
	if tq == nil {
		tq = &tenantQueue{pass: q.vtime, pq: sched.NewHeap[chan struct{}](sched.Priority)}
		q.tenants[name] = tq
	}
	if weight <= 0 {
		weight = 1
	}
	tq.weight = weight
	return tq
}

// Acquire blocks until the tenant's request is granted a dispatch slot in
// weighted-fair order, or ctx ends. A grant that races a cancellation is
// handed to the next waiter, never lost.
func (q *FairQueue) Acquire(ctx context.Context, tenantName string, weight float64, class route.SLOClass) error {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	tq := q.tenantLocked(tenantName, weight)
	if q.inUse < q.capacity && q.waiting == 0 {
		// Uncontended fast path; still charge the stride so a tenant that
		// hammers an idle gate does not arrive at contention with a stale
		// (ancient) pass identical to everyone else's.
		q.chargeLocked(tq)
		q.inUse++
		q.mu.Unlock()
		return nil
	}
	w := tq.pq.Push(q.seq, class, 0)
	w.Value = make(chan struct{})
	q.seq++
	q.waiting++
	q.mu.Unlock()

	select {
	case <-w.Value:
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		if w.Queued() {
			tq.pq.Remove(w)
			q.waiting--
			q.mu.Unlock()
		} else {
			// The grant raced the cancellation: pass the slot on.
			q.mu.Unlock()
			q.Release()
		}
		return ctx.Err()
	}
}

// chargeLocked advances the granted tenant's pass by its stride and the
// queue's virtual time to the grant point. The caller holds q.mu.
func (q *FairQueue) chargeLocked(tq *tenantQueue) {
	if tq.pass < q.vtime {
		tq.pass = q.vtime
	}
	q.vtime = tq.pass
	tq.pass += passScale / tq.weight
}

// Release returns a slot and grants it to the head waiter of the
// minimum-pass backlogged tenant.
func (q *FairQueue) Release() {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.inUse--
	for q.inUse < q.capacity {
		tq := q.minPassLocked()
		if tq == nil {
			break
		}
		w := tq.pq.Pop()
		q.waiting--
		q.chargeLocked(tq)
		q.inUse++
		close(w.Value)
	}
	q.mu.Unlock()
}

// minPassLocked picks the backlogged tenant with the smallest pass, ties
// broken by the earliest head waiter so the order stays deterministic. The
// caller holds q.mu.
func (q *FairQueue) minPassLocked() *tenantQueue {
	var best *tenantQueue
	var bestSeq uint64
	for _, tq := range q.tenants {
		if tq.pq.Len() == 0 {
			continue
		}
		headSeq := tq.pq.Peek().Seq()
		if best == nil || tq.pass < best.pass || (tq.pass == best.pass && headSeq < bestSeq) {
			best = tq
			bestSeq = headSeq
		}
	}
	return best
}

// Waiting reports how many requests are parked at the gate.
func (q *FairQueue) Waiting() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.waiting
}

// InUse reports how many dispatch slots are held.
func (q *FairQueue) InUse() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.inUse
}

// Capacity reports the gate's slot count (0 for an unlimited nil gate).
func (q *FairQueue) Capacity() int {
	if q == nil {
		return 0
	}
	return q.capacity
}

// Depths returns the per-tenant backlog (waiters only, not held slots) for
// the dashboard and /v1/stats; tenants with no backlog are omitted.
func (q *FairQueue) Depths() map[string]int {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int)
	for name, tq := range q.tenants {
		if n := tq.pq.Len(); n > 0 {
			out[name] = n
		}
	}
	return out
}
