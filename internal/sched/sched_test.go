package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

var allModes = []Mode{FCFS, Priority, SJF}

// refWaiter is the naive reference's record of one parked request.
type refWaiter struct {
	id   int
	flow string
	seq  uint64
	rank int
	est  float64
}

// refFlow is the reference's stride state of one flow.
type refFlow struct{ weight, pass float64 }

// refGate is the reference Gate is checked against: the same contract,
// written the obvious way — one unsorted slice of every parked request,
// scanned for each flow's head on every release.
type refGate struct {
	mode     Mode
	capacity int
	inUse    int
	seq      uint64
	vtime    float64
	flows    map[string]*refFlow
	parked   []refWaiter
}

func newRefGate(mode Mode, capacity int) *refGate {
	return &refGate{mode: mode, capacity: capacity, flows: map[string]*refFlow{}}
}

// before reports whether a leaves its flow ahead of b in the gate's mode.
func (g *refGate) before(a, b refWaiter) bool {
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
}

// grant takes a slot for the flow and charges it 1/weight.
func (g *refGate) grant(f *refFlow) {
	g.inUse++
	f.pass = max(f.pass, g.vtime)
	g.vtime = f.pass
	f.pass += 1 / f.weight
}

func (g *refGate) acquire(id int, flow string, weight float64, class Class, est float64) bool {
	if weight <= 0 {
		weight = 1
	}
	f := g.flows[flow]
	if f == nil {
		f = &refFlow{pass: g.vtime}
		g.flows[flow] = f
	}
	f.weight = weight
	if g.inUse < g.capacity && len(g.parked) == 0 {
		g.grant(f)
		return true
	}
	g.parked = append(g.parked, refWaiter{id: id, flow: flow, seq: g.seq, rank: class.Rank(), est: est})
	g.seq++
	return false
}

// release returns the id granted the freed slot, or -1: the head (in mode
// order) of the flow with the smallest pass, ties to the earliest head.
func (g *refGate) release() int {
	g.inUse--
	heads := map[string]int{} // flow → index of its head in parked
	for i, w := range g.parked {
		if h, ok := heads[w.flow]; !ok || g.before(w, g.parked[h]) {
			heads[w.flow] = i
		}
	}
	best := -1
	for name, i := range heads {
		if best < 0 {
			best = i
			continue
		}
		p, bp := g.flows[name].pass, g.flows[g.parked[best].flow].pass
		if p < bp || (p == bp && g.parked[i].seq < g.parked[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return -1
	}
	w := g.parked[best]
	g.parked = append(g.parked[:best], g.parked[best+1:]...)
	g.grant(g.flows[w.flow])
	return w.id
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

func (g *refGate) depths() map[string]int {
	out := map[string]int{}
	for _, w := range g.parked {
		out[w.flow]++
	}
	return out
}

func grantedID(w *Waiter[int]) int {
	if w == nil {
		return -1
	}
	return w.Value
}

// opSource is where driveGate draws its operations from: a seeded
// *rand.Rand in TestGateMatchesReference, fuzz bytes in FuzzGate.
type opSource interface{ Intn(n int) int }

// flowNames and flowWeights are what a multi-flow run draws from; weight 0
// exercises the gate's default of 1, and the 1/3 stride rounds.
var (
	flowNames   = []string{"", "a", "b", "c"}
	flowWeights = []float64{1, 2, 3, 0.5, 0}
)

// driveGate runs steps operations drawn from ops — acquire, cancel while
// parked, cancel after the grant, release — through a Gate and the
// reference, and fails on the first grant, Waiting, InUse or per-flow depth
// they disagree on. With flows == 1 every request is in the unnamed flow
// and no draw is spent on flows, so those runs take the same operations the
// single-flow reference always has. Otherwise each acquire names one of the
// first flows entries of flowNames, and one in four re-acquires changes
// that flow's weight.
func driveGate(t *testing.T, mode Mode, capacity, flows, steps int, ops opSource) {
	t.Helper()
	g := NewGate[int](capacity, mode)
	ref := newRefGate(mode, capacity)
	weights := map[string]float64{}

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
		return ids[ops.Intn(len(ids))]
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

	for step := 0; step < steps; step++ {
		switch op := ops.Intn(10); {
		case op < 5: // acquire; few distinct estimates so SJF ties happen
			id, class, est := nextID, Class(ops.Intn(3)), float64(ops.Intn(4))
			nextID++
			flow, weight := "", 1.0
			if flows > 1 {
				flow = flowNames[ops.Intn(flows)]
				w, seen := weights[flow]
				if !seen || ops.Intn(4) == 0 {
					w = flowWeights[ops.Intn(len(flowWeights))]
					weights[flow] = w
				}
				weight = w
			}
			h, ok := g.Acquire(flow, weight, class, est)
			if want := ref.acquire(id, flow, weight, class, est); ok != want {
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
		if got, want := g.Depths(), ref.depths(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: depths %v, reference %v", step, got, want)
		}
	}
}

// TestGateMatchesReference drives Gate and the reference with the same
// seeded random acquire / cancel / release sequence in every mode: every
// grant must go to the same request, including the slot a waiter canceled
// after its grant hands on. mode/seedN runs one unnamed flow;
// mode/flows/seedN spreads requests over two to four weighted flows whose
// weights change on re-acquire.
func TestGateMatchesReference(t *testing.T) {
	for _, mode := range allModes {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				driveGate(t, mode, 1+rng.Intn(4), 1, 4000, rng)
			})
			t.Run(fmt.Sprintf("%s/flows/seed%d", mode, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				capacity := 1 + rng.Intn(4)
				driveGate(t, mode, capacity, 2+rng.Intn(3), 4000, rng)
			})
		}
	}
}

// byteOps draws operations from fuzz input, one byte per draw; an
// exhausted input draws zeros.
type byteOps []byte

func (b *byteOps) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// FuzzGate decodes arbitrary bytes into a mode, a capacity, a flow count
// and an operation sequence, and holds the Gate to the reference on it.
// Runs stop at maxFuzzSteps operations: the reference and the per-step
// depth check cost O(parked) each, so a long input would be quadratic.
func FuzzGate(f *testing.F) {
	const maxFuzzSteps = 512
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 0, 3, 0, 2, 1, 1, 0, 0, 3, 0, 9, 9, 4, 1, 2, 0, 0, 9, 7, 0})
	f.Add([]byte{2, 3, 2, 4, 1, 3, 1, 2, 4, 0, 0, 1, 4, 9, 0, 0, 5, 0, 8, 0, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := byteOps(data)
		mode, capacity, flows := Mode(ops.Intn(3)), 1+ops.Intn(4), 1+ops.Intn(len(flowNames))
		driveGate(t, mode, capacity, flows, min(len(ops), maxFuzzSteps), &ops)
	})
}

// TestGateCancelNeedsNoRelease: 10k parked waiters all cancel while every
// slot stays held; the heap must end empty without a single Release, and
// the gate must still grant once a slot does free up.
func TestGateCancelNeedsNoRelease(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			g := NewGate[int](2, mode)
			for i := 0; i < 2; i++ {
				if _, ok := g.Acquire("", 1, ClassStandard, 0); !ok {
					t.Fatalf("filling slot %d parked", i)
				}
			}
			const waiters = 10000
			hs := make([]*Waiter[int], waiters)
			for i := range hs {
				h, ok := g.Acquire("", 1, Class(i%3), float64(i%7))
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
			h, ok := g.Acquire("", 1, ClassInteractive, 0)
			if ok {
				t.Fatal("acquire on a full gate granted")
			}
			if got := g.Release(); got != h {
				t.Fatal("freed slot did not reach the parked waiter")
			}
		})
	}
}

// TestFormerInvariants drives Former with a seeded random mix of held and
// unheld Add, matching and stale Expire, CutIdle and Drain, against a plain
// model of what each group should hold.
func TestFormerInvariants(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			maxBatch := 1 + rng.Intn(5)
			f := NewFormer[string, int](maxBatch)

			type live struct {
				items []int
				gen   uint64
				held  bool
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
				switch op := rng.Intn(23); {
				case op < 12:
					v := added
					added++
					m := model[key]
					hold := rng.Intn(3) == 0
					batch, gen, fresh := f.Add(key, v, hold)
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
					m.held = m.held || hold
					if len(m.items) >= maxBatch {
						deliver(step, "Add", batch, m.items)
						delete(model, key)
					} else if batch != nil {
						t.Fatalf("step %d: Add cut %v at size %d < %d", step, batch, len(m.items), maxBatch)
					}
				case op < 17 && len(deadlines) > 0:
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
				case op < 22:
					// An idle slot takes the oldest group nobody holds.
					var want string
					var oldest *live
					for k, m := range model {
						if !m.held && (oldest == nil || m.gen < oldest.gen) {
							want, oldest = k, m
						}
					}
					key, got := f.CutIdle()
					if oldest == nil {
						if got != nil {
							t.Fatalf("step %d: CutIdle cut %s %v with every group held", step, key, got)
						}
						break
					}
					if key != want {
						t.Fatalf("step %d: CutIdle cut %s, want %s (gen %d)", step, key, want, oldest.gen)
					}
					deliver(step, "CutIdle", got, oldest.items)
					delete(model, want)
				case op == 22:
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

// TestFormerCutIdleOldestUnheld: CutIdle cuts live groups in generation
// order, skips every group an item holds — one held item is enough, before
// or after unheld ones — and leaves the cut incarnation's deadline a no-op,
// including against the key's next incarnation.
func TestFormerCutIdleOldestUnheld(t *testing.T) {
	f := NewFormer[string, int](8)
	_, genA, _ := f.Add("a", 1, true)
	_, genB, _ := f.Add("b", 2, false)
	f.Add("c", 3, false)
	f.Add("b", 4, false)
	f.Add("d", 5, false)
	f.Add("d", 6, true)
	f.Add("c", 7, false)

	for _, want := range []struct {
		key   string
		items []int
	}{{"b", []int{2, 4}}, {"c", []int{3, 7}}} {
		key, batch := f.CutIdle()
		if key != want.key || !slices.Equal(batch, want.items) {
			t.Fatalf("CutIdle cut %s %v, want %s %v", key, batch, want.key, want.items)
		}
	}
	if key, batch := f.CutIdle(); batch != nil {
		t.Fatalf("CutIdle cut held group %s %v", key, batch)
	}
	if f.Len() != 2 {
		t.Fatalf("%d live groups, want the two held ones", f.Len())
	}

	if batch := f.Expire("b", genB); batch != nil {
		t.Fatalf("deadline of an idle-cut incarnation cut %v", batch)
	}
	_, genB2, fresh := f.Add("b", 8, false)
	if !fresh || genB2 == genB {
		t.Fatalf("b came back as fresh=%v gen %d (was %d)", fresh, genB2, genB)
	}
	if batch := f.Expire("b", genB); batch != nil {
		t.Fatalf("stale deadline cut the next incarnation's %v", batch)
	}
	if key, batch := f.CutIdle(); key != "b" || !slices.Equal(batch, []int{8}) {
		t.Fatalf("CutIdle cut %s %v, want b [8]", key, batch)
	}
	if batch := f.Expire("a", genA); !slices.Equal(batch, []int{1}) {
		t.Fatalf("held group's own deadline cut %v, want [1]", batch)
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
