package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

var allModes = []Mode{FCFS, Priority, SJF}

// refWaiter is the naive reference's record of one parked request.
type refWaiter struct {
	id   int
	seq  uint64
	rank int
	est  float64
}

// refGate is the sorted-slice reference Gate is checked against: the same
// contract, written the obvious O(n log n) way.
type refGate struct {
	mode     Mode
	capacity int
	inUse    int
	seq      uint64
	parked   []refWaiter
}

func (g *refGate) acquire(id int, class Class, est float64) bool {
	if g.inUse < g.capacity && len(g.parked) == 0 {
		g.inUse++
		return true
	}
	g.parked = append(g.parked, refWaiter{id: id, seq: g.seq, rank: class.Rank(), est: est})
	g.seq++
	return false
}

// release returns the id granted the freed slot, or -1.
func (g *refGate) release() int {
	g.inUse--
	if len(g.parked) == 0 {
		return -1
	}
	sort.SliceStable(g.parked, func(i, j int) bool {
		a, b := g.parked[i], g.parked[j]
		switch g.mode {
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
	})
	id := g.parked[0].id
	g.parked = g.parked[1:]
	g.inUse++
	return id
}

func (g *refGate) cancelParked(id int) {
	for i, w := range g.parked {
		if w.id == id {
			g.parked = append(g.parked[:i], g.parked[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("reference has no parked waiter %d", id))
}

func grantedID(w *Waiter[int]) int {
	if w == nil {
		return -1
	}
	return w.Value
}

// TestGateMatchesReference drives Gate and the sorted-slice reference with
// the same seeded random acquire / cancel / release sequence in every mode:
// every grant must go to the same request, including the slot a waiter
// canceled after its grant hands on.
func TestGateMatchesReference(t *testing.T) {
	for _, mode := range allModes {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				capacity := 1 + rng.Intn(4)
				g := NewGate[int](capacity, mode)
				ref := &refGate{mode: mode, capacity: capacity}

				parked := map[int]*Waiter[int]{}  // id → handle, still queued
				granted := map[int]*Waiter[int]{} // id → handle, holds a slot it was granted
				holders := 0                      // slots taken on the fast path
				nextID := 0
				pick := func(m map[int]*Waiter[int]) int {
					ids := make([]int, 0, len(m))
					for id := range m {
						ids = append(ids, id)
					}
					sort.Ints(ids)
					return ids[rng.Intn(len(ids))]
				}
				handOn := func(step int, got *Waiter[int], want int) {
					t.Helper()
					if grantedID(got) != want {
						t.Fatalf("step %d: slot handed to %d, reference says %d", step, grantedID(got), want)
					}
					if got != nil {
						if got.Queued() {
							t.Fatalf("step %d: granted waiter %d still reports Queued", step, want)
						}
						delete(parked, want)
						granted[want] = got
					}
				}

				for step := 0; step < 4000; step++ {
					switch op := rng.Intn(10); {
					case op < 5: // acquire; few distinct estimates so SJF ties happen
						id, class, est := nextID, Class(rng.Intn(3)), float64(rng.Intn(4))
						nextID++
						h, ok := g.Acquire(class, est)
						if want := ref.acquire(id, class, est); ok != want {
							t.Fatalf("step %d: acquire granted=%v, reference %v", step, ok, want)
						}
						if ok {
							holders++
						} else {
							h.Value = id
							parked[id] = h
						}
					case op < 7: // cancel a parked waiter: nothing is granted
						if len(parked) == 0 {
							continue
						}
						id := pick(parked)
						if next := g.Cancel(parked[id]); next != nil {
							t.Fatalf("step %d: canceling parked %d granted %d", step, id, next.Value)
						}
						ref.cancelParked(id)
						delete(parked, id)
					case op < 8: // cancel after grant: the slot must be handed on
						if len(granted) == 0 {
							continue
						}
						id := pick(granted)
						h := granted[id]
						delete(granted, id)
						handOn(step, g.Cancel(h), ref.release())
					default: // release a held slot
						switch {
						case holders > 0:
							holders--
						case len(granted) > 0:
							delete(granted, pick(granted))
						default:
							continue
						}
						handOn(step, g.Release(), ref.release())
					}
					if g.Waiting() != len(ref.parked) || g.InUse() != ref.inUse {
						t.Fatalf("step %d: waiting/inUse = %d/%d, reference %d/%d",
							step, g.Waiting(), g.InUse(), len(ref.parked), ref.inUse)
					}
				}
			})
		}
	}
}

// TestGateCancelNeedsNoRelease: 10k parked waiters all cancel while every
// slot stays held; the heap must end empty without a single Release, and
// the gate must still grant once a slot does free up.
func TestGateCancelNeedsNoRelease(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			g := NewGate[int](2, mode)
			for i := 0; i < 2; i++ {
				if _, ok := g.Acquire(ClassStandard, 0); !ok {
					t.Fatalf("filling slot %d parked", i)
				}
			}
			const waiters = 10000
			hs := make([]*Waiter[int], waiters)
			for i := range hs {
				h, ok := g.Acquire(Class(i%3), float64(i%7))
				if ok {
					t.Fatalf("waiter %d granted on a full gate", i)
				}
				hs[i] = h
			}
			rand.New(rand.NewSource(3)).Shuffle(waiters, func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
			for _, h := range hs {
				if next := g.Cancel(h); next != nil {
					t.Fatal("canceling a parked waiter granted a slot")
				}
			}
			if g.Waiting() != 0 || g.InUse() != 2 {
				t.Fatalf("waiting/inUse = %d/%d after canceling every waiter, want 0/2", g.Waiting(), g.InUse())
			}
			h, ok := g.Acquire(ClassInteractive, 0)
			if ok {
				t.Fatal("acquire on a full gate granted")
			}
			if got := g.Release(); got != h {
				t.Fatal("freed slot did not reach the parked waiter")
			}
		})
	}
}

// TestFormerInvariants drives Former with a seeded random mix of Add,
// matching and stale Expire, and Drain, against a plain model of what each
// group should hold.
func TestFormerInvariants(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			maxBatch := 1 + rng.Intn(5)
			f := NewFormer[string, int](maxBatch)

			type live struct {
				items []int
				gen   uint64
			}
			type deadline struct {
				key string
				gen uint64
			}
			model := map[string]*live{}
			var deadlines []deadline // every one ever armed, fired or not
			seenGen := map[uint64]bool{}
			delivered := map[int]int{} // item → times it came out in a batch
			added := 0
			deliver := func(step int, what string, got, want []int) {
				t.Helper()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("step %d: %s cut %v, want %v", step, what, got, want)
				}
				for _, v := range got {
					delivered[v]++
				}
			}

			for step := 0; step < 5000; step++ {
				key := fmt.Sprintf("k%d", rng.Intn(6))
				switch op := rng.Intn(20); {
				case op < 12:
					v := added
					added++
					m := model[key]
					batch, gen, fresh := f.Add(key, v)
					if fresh != (m == nil) {
						t.Fatalf("step %d: fresh=%v with live group=%v", step, fresh, m != nil)
					}
					if fresh {
						if seenGen[gen] {
							t.Fatalf("step %d: generation %d reused", step, gen)
						}
						seenGen[gen] = true
						deadlines = append(deadlines, deadline{key, gen})
						m = &live{gen: gen}
						model[key] = m
					} else if gen != m.gen {
						t.Fatalf("step %d: joined generation %d, live one is %d", step, gen, m.gen)
					}
					m.items = append(m.items, v)
					if len(m.items) >= maxBatch {
						deliver(step, "Add", batch, m.items)
						delete(model, key)
					} else if batch != nil {
						t.Fatalf("step %d: Add cut %v at size %d < %d", step, batch, len(m.items), maxBatch)
					}
				case op < 19 && len(deadlines) > 0:
					// Fire a deadline armed at some point in the past: live for
					// its own incarnation only, a no-op for any other.
					d := deadlines[rng.Intn(len(deadlines))]
					got := f.Expire(d.key, d.gen)
					if m := model[d.key]; m != nil && m.gen == d.gen {
						deliver(step, "Expire", got, m.items)
						delete(model, d.key)
					} else if got != nil {
						t.Fatalf("step %d: stale Expire(%s, %d) cut %v", step, d.key, d.gen, got)
					}
				case op == 19:
					for key, items := range f.Drain() {
						m := model[key]
						if m == nil {
							t.Fatalf("step %d: Drain returned dead group %s", step, key)
						}
						deliver(step, "Drain", items, m.items)
						delete(model, key)
					}
					if len(model) != 0 {
						t.Fatalf("step %d: Drain left %d groups queued", step, len(model))
					}
				}
				if f.Len() != len(model) {
					t.Fatalf("step %d: %d groups in the map, %d live", step, f.Len(), len(model))
				}
			}

			for key, items := range f.Drain() {
				deliver(-1, "final Drain", items, model[key].items)
			}
			if f.Len() != 0 {
				t.Fatalf("%d groups survive Drain", f.Len())
			}
			for v := 0; v < added; v++ {
				if delivered[v] != 1 {
					t.Fatalf("item %d delivered %d times, want exactly once", v, delivered[v])
				}
			}
		})
	}
}

// TestBucketBurstClamp: the constructor, not its callers, raises a burst
// below 1 to 1 — a bucket that could never hold a whole token would never
// admit.
func TestBucketBurstClamp(t *testing.T) {
	for _, burst := range []float64{-3, 0, 0.5, 1} {
		b := NewBucket(10, burst, 0)
		if !b.Allow(0) {
			t.Fatalf("burst %v: first request refused", burst)
		}
		if b.Allow(0) {
			t.Fatalf("burst %v: second request at the same instant admitted", burst)
		}
		if !b.Allow(100e6) { // 0.1 s at 10/s = one token
			t.Fatalf("burst %v: refill refused", burst)
		}
	}
	unlimited := NewBucket(0, 0, 0)
	for i := 0; i < 100; i++ {
		if !unlimited.Allow(0) {
			t.Fatal("rate 0 throttled")
		}
	}
}
