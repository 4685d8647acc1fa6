package sched

import "container/heap"

// Waiter is one request parked in a Heap, and the handle it is canceled
// through: the caller's payload (a ready channel in the live tiers, the
// request itself in the simulator) beside the fields the heap orders by.
type Waiter[T any] struct {
	// Value is the caller's to set and read; the heap never looks at it.
	Value T

	seq  uint64
	rank int
	est  float64
	// index is the current heap position, kept by order's Swap/Push/Pop so
	// a canceled waiter can be removed eagerly; -1 once out of the heap.
	index int
}

// Seq is the arrival sequence the waiter was pushed with.
func (w *Waiter[T]) Seq() uint64 { return w.seq }

// Queued reports whether the waiter is still in its heap — false once it
// has been popped (granted) or removed (canceled).
func (w *Waiter[T]) Queued() bool { return w.index >= 0 }

// order is the heap.Interface under Heap. Ties always break by arrival
// sequence so every mode is a total, deterministic order — the property the
// golden scheduling tests pin.
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

// Heap is the indexed waiter heap: waiters leave in Mode order (FCFS by
// sequence, Priority by class rank then sequence, SJF by estimate then
// sequence), and any waiter can be removed in O(log n) the moment its
// request is canceled, so an abandoned backlog never accumulates.
type Heap[T any] struct{ o order[T] }

// NewHeap returns an empty heap ordered by mode.
func NewHeap[T any](mode Mode) Heap[T] { return Heap[T]{o: order[T]{mode: mode}} }

// Len reports how many waiters are parked.
func (h *Heap[T]) Len() int { return len(h.o.ws) }

// Push parks a new waiter. seq must be unique and increasing per heap
// family (one counter may span several heaps, as the fair queue's does).
func (h *Heap[T]) Push(seq uint64, class Class, est float64) *Waiter[T] {
	w := &Waiter[T]{seq: seq, rank: class.Rank(), est: est}
	heap.Push(&h.o, w)
	return w
}

// Peek returns the waiter Pop would return, or nil when empty.
func (h *Heap[T]) Peek() *Waiter[T] {
	if len(h.o.ws) == 0 {
		return nil
	}
	return h.o.ws[0]
}

// Pop removes and returns the best waiter; the heap must not be empty.
func (h *Heap[T]) Pop() *Waiter[T] { return heap.Pop(&h.o).(*Waiter[T]) }

// Remove takes a still-Queued waiter out of the heap.
func (h *Heap[T]) Remove(w *Waiter[T]) { heap.Remove(&h.o, w.index) }

// Gate is a counting semaphore whose waiters are granted in Mode order
// rather than FIFO: this is where SLO classes and predicted latency shape
// the dispatch sequence ("priority batch formation" at the fleet tier —
// which requests reach the replicas' batchers first).
type Gate[T any] struct {
	capacity int
	inUse    int
	seq      uint64
	heap     Heap[T]
}

// NewGate builds a gate with capacity slots.
func NewGate[T any](capacity int, mode Mode) *Gate[T] {
	return &Gate[T]{capacity: capacity, heap: NewHeap[T](mode)}
}

// Acquire takes a slot if one is free and nobody is parked (granted, nil
// handle). Otherwise the request is parked and its handle returned: the
// caller stores whatever it needs to resume the request in handle.Value and
// waits to see the handle come back from Release or Cancel.
func (g *Gate[T]) Acquire(class Class, est float64) (handle *Waiter[T], granted bool) {
	if g.inUse < g.capacity && g.heap.Len() == 0 {
		g.inUse++
		return nil, true
	}
	w := g.heap.Push(g.seq, class, est)
	g.seq++
	return w, false
}

// Release returns a slot and hands it to the best parked waiter, which is
// returned (nil when nobody waits). Canceled waiters are never seen here:
// Cancel removes them eagerly.
func (g *Gate[T]) Release() *Waiter[T] {
	g.inUse--
	if g.heap.Len() == 0 {
		return nil
	}
	g.inUse++
	return g.heap.Pop()
}

// Cancel withdraws a parked request. A handle still queued leaves the heap
// at once rather than waiting for a lazy reap in Release: reaping only runs
// when a slot frees, so with every slot stuck the heap grew without bound
// under canceling clients. A handle already granted (the grant raced the
// cancellation) gives its slot back and the waiter inheriting it is returned.
func (g *Gate[T]) Cancel(handle *Waiter[T]) *Waiter[T] {
	if handle.Queued() {
		g.heap.Remove(handle)
		return nil
	}
	return g.Release()
}

// Waiting reports how many requests are parked at the gate.
func (g *Gate[T]) Waiting() int { return g.heap.Len() }

// InUse reports how many slots are held.
func (g *Gate[T]) InUse() int { return g.inUse }
