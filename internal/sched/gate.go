package sched

import "container/heap"

// Waiter is one request parked at a Gate, and the handle it is canceled
// through: the caller's payload (a ready channel in the live tiers, the
// request itself in the simulator) beside the fields the gate orders by.
type Waiter[T any] struct {
	// Value is the caller's to set and read; the gate never looks at it.
	Value T

	flow *flow[T]
	seq  uint64
	rank int
	est  float64
	// index is the current position in the flow's heap, kept by order's
	// Swap/Push/Pop so a canceled waiter can be removed eagerly; -1 once
	// out of the heap.
	index int
}

// Queued reports whether the waiter is still parked — false once it has
// been granted or canceled.
func (w *Waiter[T]) Queued() bool { return w.index >= 0 }

// order is one flow's indexed waiter heap (heap.Interface): waiters leave
// in Mode order (FCFS by sequence, Priority by class rank then sequence,
// SJF by estimate then sequence), and any waiter can be removed in
// O(log n) the moment its request is canceled. Ties always break by
// arrival sequence so every mode is a total, deterministic order — the
// property the golden scheduling tests pin.
type order[T any] struct {
	mode Mode
	ws   []*Waiter[T]
}

func (o *order[T]) Len() int { return len(o.ws) }

func (o *order[T]) Less(i, j int) bool {
	a, b := o.ws[i], o.ws[j]
	switch o.mode {
	case Priority:
		if a.rank != b.rank {
			return a.rank > b.rank
		}
	case SJF:
		if a.est != b.est {
			return a.est < b.est
		}
	}
	return a.seq < b.seq
}

func (o *order[T]) Swap(i, j int) {
	o.ws[i], o.ws[j] = o.ws[j], o.ws[i]
	o.ws[i].index = i
	o.ws[j].index = j
}

func (o *order[T]) Push(x any) {
	w := x.(*Waiter[T])
	w.index = len(o.ws)
	o.ws = append(o.ws, w)
}

func (o *order[T]) Pop() any {
	old := o.ws
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	o.ws = old[:n-1]
	return w
}

// flow is one named flow's parked waiters and its stride state: a grant
// to the flow advances its pass by 1/weight.
type flow[T any] struct {
	name   string
	weight float64
	pass   float64
	q      order[T]
}

// Gate is a counting semaphore whose waiters are granted by weighted-fair
// stride scheduling across named flows (Waldspurger & Weihl, MIT/LCS/TM-528)
// and in Mode order within a flow. A freed slot goes to the backlogged flow
// with the smallest pass, ties to the flow whose head waiter arrived first;
// the winner's pass advances by 1/weight, so over any contention interval
// each flow's share of grants is proportional to its weight however deep
// another flow's backlog grows. A flow first seen, or back from idle,
// starts no earlier than the gate's virtual time (the pass of the last
// grant), so idle time banks no credit.
//
// With one flow the stride state never decides anything and the gate is a
// plain Mode-ordered semaphore: this is where SLO classes and predicted
// latency shape the dispatch sequence. The router, serve and the simulator
// run it that way; the tenant tier runs one flow per tenant.
type Gate[T any] struct {
	capacity int
	mode     Mode
	inUse    int
	waiting  int
	seq      uint64
	vtime    float64
	// flows is every flow ever seen, in first-seen order. Callers name
	// flows from a bounded set (the router uses one, the tenant tier the
	// key file's tenants), so a linear scan is the right index.
	flows []*flow[T]
}

// NewGate builds a gate with capacity slots, ordering each flow's waiters
// by mode.
func NewGate[T any](capacity int, mode Mode) *Gate[T] {
	return &Gate[T]{capacity: capacity, mode: mode}
}

// flowFor returns the named flow, creating it at the current virtual time.
// The weight (<= 0 means 1) is refreshed on every call so a changed weight
// takes effect at the flow's next grant.
func (g *Gate[T]) flowFor(name string, weight float64) *flow[T] {
	if weight <= 0 {
		weight = 1
	}
	for _, f := range g.flows {
		if f.name == name {
			f.weight = weight
			return f
		}
	}
	f := &flow[T]{name: name, weight: weight, pass: g.vtime, q: order[T]{mode: g.mode}}
	g.flows = append(g.flows, f)
	return f
}

// Acquire takes a slot for the named flow if one is free and nobody is
// parked (granted, nil handle). Otherwise the request is parked and its
// handle returned: the caller stores whatever it needs to resume the
// request in handle.Value and waits to see the handle come back from
// Release or Cancel.
func (g *Gate[T]) Acquire(flowName string, weight float64, class Class, est float64) (handle *Waiter[T], granted bool) {
	f := g.flowFor(flowName, weight)
	if g.Free() {
		g.grant(f)
		return nil, true
	}
	w := &Waiter[T]{flow: f, seq: g.seq, rank: class.Rank(), est: est}
	g.seq++
	heap.Push(&f.q, w)
	g.waiting++
	return w, false
}

// grant takes a slot for f and charges it one stride. Every grant, the
// uncontended one included, goes through here: a flow that hammers an
// idle gate reaches contention with the pass its grants earned.
func (g *Gate[T]) grant(f *flow[T]) {
	g.inUse++
	if f.pass < g.vtime {
		f.pass = g.vtime
	}
	g.vtime = f.pass
	f.pass += 1 / f.weight
}

// Release returns a slot and hands it to the head waiter of the min-pass
// backlogged flow, which is returned (nil when nobody waits). Canceled
// waiters are never seen here: Cancel removes them eagerly.
func (g *Gate[T]) Release() *Waiter[T] {
	g.inUse--
	var best *flow[T]
	for _, f := range g.flows {
		if len(f.q.ws) == 0 {
			continue
		}
		if best == nil || f.pass < best.pass || (f.pass == best.pass && f.q.ws[0].seq < best.q.ws[0].seq) {
			best = f
		}
	}
	if best == nil {
		return nil
	}
	g.grant(best)
	g.waiting--
	return heap.Pop(&best.q).(*Waiter[T])
}

// Cancel withdraws a parked request. A handle still queued leaves its heap
// at once rather than waiting for a lazy reap in Release: reaping only runs
// when a slot frees, so with every slot stuck the heap grew without bound
// under canceling clients. A handle already granted (the grant raced the
// cancellation) gives its slot back and the waiter inheriting it is returned.
func (g *Gate[T]) Cancel(handle *Waiter[T]) *Waiter[T] {
	if handle.Queued() {
		heap.Remove(&handle.flow.q, handle.index)
		g.waiting--
		return nil
	}
	return g.Release()
}

// Free reports whether a slot is free and nobody is parked, so the next
// Acquire is granted at once.
func (g *Gate[T]) Free() bool { return g.inUse < g.capacity && g.waiting == 0 }

// Waiting reports how many requests are parked at the gate.
func (g *Gate[T]) Waiting() int { return g.waiting }

// InUse reports how many slots are held.
func (g *Gate[T]) InUse() int { return g.inUse }

// Capacity reports the gate's slot count.
func (g *Gate[T]) Capacity() int { return g.capacity }

// Depths returns each backlogged flow's parked-waiter count; flows with no
// backlog are omitted.
func (g *Gate[T]) Depths() map[string]int {
	out := make(map[string]int)
	for _, f := range g.flows {
		if n := len(f.q.ws); n > 0 {
			out[f.name] = n
		}
	}
	return out
}
