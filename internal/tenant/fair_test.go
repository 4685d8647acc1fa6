package tenant

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/route"
	"drainnas/internal/route/routetest"
	"drainnas/internal/sched"
)

// arrival is one request parked at the fair gate: the tenant it queues
// under, the tenant's key-file weight, its SLO class and the label its
// grant is recorded by.
type arrival struct {
	tenant string
	weight float64
	class  sched.Class
	label  string
}

// standard is n standard-class arrivals of one tenant, all labeled label.
func standard(tenant string, weight float64, label string, n int) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{tenant, weight, sched.ClassStandard, label}
	}
	return out
}

// grantOrder drives the core of the tier's gate (one slot, Priority order
// within a tenant, as Tier runs it) with no goroutines: holder takes the
// slot on the uncontended path, every arrival parks in the order given,
// and then each grant hands its slot straight back, so the labels come out
// in grant order. The slot must be free once the backlog drains.
func grantOrder(t *testing.T, holder string, arrivals []arrival) []string {
	t.Helper()
	g := sched.NewGate[string](1, sched.Priority)
	if _, ok := g.Acquire(holder, 1, sched.ClassStandard, 0); !ok {
		t.Fatal("holder parked on an idle gate")
	}
	for _, a := range arrivals {
		w, ok := g.Acquire(a.tenant, a.weight, a.class, 0)
		if ok {
			t.Fatalf("%s granted while the slot is held", a.label)
		}
		w.Value = a.label
	}
	var order []string
	for w := g.Release(); w != nil; w = g.Release() {
		order = append(order, w.Value)
	}
	if len(order) != len(arrivals) || g.InUse() != 0 || g.Waiting() != 0 {
		t.Fatalf("%d grants for %d arrivals, in use %d, waiting %d after the drain",
			len(order), len(arrivals), g.InUse(), g.Waiting())
	}
	return order
}

func countIn(order []string, label string, firstN int) int {
	n := 0
	for _, o := range order[:min(firstN, len(order))] {
		if o == label {
			n++
		}
	}
	return n
}

// TestFairQueueFloodIsolation is the tier's isolation pin: two tenants at
// equal weight, one flooding at 10x the compliant tenant's demand, and the
// compliant tenant's goodput within a fixed grant budget must stay >= 90%
// of its solo baseline. The flooder holds the slot and queues its whole
// backlog first; the grants then alternate until the compliant tenant is
// served.
func TestFairQueueFloodIsolation(t *testing.T) {
	const (
		compliantReqs = 20
		floodReqs     = 10 * compliantReqs
		grantBudget   = 2 * compliantReqs
	)

	solo := grantOrder(t, "blocker", standard("compliant", 1, "C", compliantReqs))
	if got, want := strings.Join(solo, ""), strings.Repeat("C", compliantReqs); got != want {
		t.Fatalf("solo grants %s, want %s", got, want)
	}

	mixed := grantOrder(t, "flood", append(standard("flood", 1, "F", floodReqs),
		standard("compliant", 1, "C", compliantReqs)...))
	want := strings.Repeat("CF", compliantReqs) + strings.Repeat("F", floodReqs-compliantReqs)
	if got := strings.Join(mixed, ""); got != want {
		t.Fatalf("mixed grants\n got  %s\n want %s", got, want)
	}
	soloN, mixedN := countIn(solo, "C", grantBudget), countIn(mixed, "C", grantBudget)
	if mixedN*10 < soloN*9 {
		t.Fatalf("flood broke isolation: compliant completed %d of %d in the first %d grants (solo baseline %d, need >= 90%%)",
			mixedN, compliantReqs, grantBudget, soloN)
	}
}

// TestFairQueueWeightedShares pins the stride arithmetic: weight 3 vs
// weight 1, arriving interleaved, split a contention interval 3:1 in this
// exact order (1/3 strides round, so the pattern is not a plain HHHL).
func TestFairQueueWeightedShares(t *testing.T) {
	const each = 40
	var arrivals []arrival
	for i := 0; i < each; i++ {
		arrivals = append(arrivals, arrival{"heavy", 3, sched.ClassStandard, "H"},
			arrival{"light", 1, sched.ClassStandard, "L"})
	}
	order := grantOrder(t, "blocker", arrivals)
	const want = "HLHHLHHHHLHHLHHHLHHHHLHHHLHHHLHHHLHHHLHHLHHHLHHHLHHHLHLLLLLLLLLLLLLLLLLLLLLLLLLL"
	if got := strings.Join(order, ""); got != want {
		t.Fatalf("grants\n got  %s\n want %s", got, want)
	}
	// While both stay backlogged — the first 40 grants — heavy takes ~3/4.
	if heavy := countIn(order, "H", each); heavy < 29 || heavy > 31 {
		t.Fatalf("heavy won %d of first %d grants, want ~30 (3:1 split)", heavy, each)
	}
}

// TestFairQueueSLOOrderWithinTenant pins the composition with SLO classes:
// inside one tenant's queue, interactive beats standard beats batch
// regardless of arrival order.
func TestFairQueueSLOOrderWithinTenant(t *testing.T) {
	order := grantOrder(t, "blocker", []arrival{
		{"acme", 1, sched.ClassBatch, "batch-1"},
		{"acme", 1, sched.ClassBatch, "batch-2"},
		{"acme", 1, sched.ClassStandard, "standard-1"},
		{"acme", 1, sched.ClassInteractive, "interactive-1"},
	})
	want := []string{"interactive-1", "standard-1", "batch-1", "batch-2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
}

// TestFairQueueCancelWhileQueued: a canceled waiter leaves the blocking
// gate without consuming or leaking a slot, and the gate's stats show it
// while it is parked.
func TestFairQueueCancelWhileQueued(t *testing.T) {
	tier, _ := newTestTier(t, routetest.NewFakeClock(), 1)
	q := tier.Fair()
	if err := q.Acquire(context.Background(), "a", 1, route.ClassStandard, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- q.Acquire(ctx, "b", 1, route.ClassStandard, 0) }()
	for deadline := time.Now().Add(5 * time.Second); q.Waiting() != 1; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
	}
	want := api.FairStats{Capacity: 1, InUse: 1, Waiting: 1, Depths: map[string]int{"b": 1}}
	if got := q.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("canceled acquire returned %v", err)
	}
	if q.Waiting() != 0 {
		t.Fatalf("canceled waiter still queued: %d", q.Waiting())
	}
	// The slot is still usable by the next request.
	q.Release()
	if err := q.Acquire(context.Background(), "c", 1, route.ClassStandard, 0); err != nil {
		t.Fatal(err)
	}
	q.Release()
	if got := q.Stats(); got.InUse != 0 || got.Waiting != 0 || len(got.Depths) != 0 {
		t.Fatalf("stats %+v after drain", got)
	}
}

// TestFairQueueNilIsUnlimited: a tier without fair slots has no gate, and
// the nil gate admits everything and reports empty stats.
func TestFairQueueNilIsUnlimited(t *testing.T) {
	tier, _ := newTestTier(t, routetest.NewFakeClock(), 0)
	q := tier.Fair()
	if q != nil {
		t.Fatal("inflight 0 should disable the gate")
	}
	for i := 0; i < 100; i++ {
		if err := q.Acquire(context.Background(), "x", 1, route.ClassBatch, 0); err != nil {
			t.Fatal(err)
		}
	}
	q.Release()
	if q.Waiting() != 0 {
		t.Fatal("nil gate reports waiters")
	}
	if snap := q.Stats(); !reflect.DeepEqual(snap, api.FairStats{}) {
		t.Fatalf("nil gate snapshot %+v", snap)
	}
}

// TestFairQueueDepths: backlog attribution per tenant, and the grant order
// that drains it — b has banked no stride, so it goes first.
func TestFairQueueDepths(t *testing.T) {
	g := sched.NewGate[string](1, sched.Priority)
	g.Acquire("a", 1, sched.ClassStandard, 0)
	for _, name := range []string{"a", "b", "b"} {
		w, _ := g.Acquire(name, 1, sched.ClassStandard, 0)
		w.Value = name
	}
	if d := g.Depths(); !reflect.DeepEqual(d, map[string]int{"a": 1, "b": 2}) {
		t.Fatalf("depths %v, want a:1 b:2", d)
	}
	if g.Capacity() != 1 || g.InUse() != 1 || g.Waiting() != 3 {
		t.Fatalf("capacity/in use/waiting %d/%d/%d, want 1/1/3", g.Capacity(), g.InUse(), g.Waiting())
	}
	var order string
	for w := g.Release(); w != nil; w = g.Release() {
		order += w.Value
	}
	if order != "bab" {
		t.Fatalf("grant order %s, want bab", order)
	}
	if d := g.Depths(); len(d) != 0 {
		t.Fatalf("depths %v after the drain", d)
	}
}
