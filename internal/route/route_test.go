package route_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"drainnas/internal/route"
	"drainnas/internal/route/routetest"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

func testInput() *tensor.Tensor { return tensor.New(3, 8, 8) }

// waitUntil polls cond until it holds or the deadline passes. It is a
// quiescence wait used to sequence concurrent enqueues, never a timing
// assertion — all simulated time still moves only through the fake clock.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSubmitRoutesAndRecords(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, fakes := fakeFleet(clock, "r0", "r1")
	r := route.New(route.Options{Clock: clock}, reps...)
	defer r.Close()

	resp, err := r.Submit(context.Background(), "m0", testInput())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.Replica != "r0" || resp.Hedged {
		t.Fatalf("resp = {Replica:%s Hedged:%v}, want primary r0", resp.Replica, resp.Hedged)
	}
	if resp.Model != "m0" {
		t.Fatalf("resp.Model = %q, want m0", resp.Model)
	}
	// Round-robin: second request lands on r1.
	resp, err = r.Submit(context.Background(), "m1", testInput())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.Replica != "r1" {
		t.Fatalf("second pick = %s, want r1", resp.Replica)
	}
	if got := fakes[0].Calls(); len(got) != 1 || got[0] != "m0" {
		t.Fatalf("r0 calls = %v, want [m0]", got)
	}

	snap := r.Stats().Snapshot()
	if snap.Submitted != 2 || snap.Completed != 2 || snap.Failed != 0 {
		t.Fatalf("snapshot = %+v, want 2 submitted, 2 completed", snap)
	}
	if snap.PerPolicy[route.PolicyRoundRobin] != 2 {
		t.Fatalf("per-policy = %v, want round-robin:2", snap.PerPolicy)
	}
	if snap.PerReplica["r0"].Picked != 1 || snap.PerReplica["r1"].Picked != 1 {
		t.Fatalf("per-replica = %v, want one pick each", snap.PerReplica)
	}
}

func TestSubmitNoReplicas(t *testing.T) {
	clock := routetest.NewFakeClock()
	r := route.New(route.Options{Clock: clock})
	defer r.Close()

	if _, err := r.Submit(context.Background(), "m", testInput()); !errors.Is(err, route.ErrNoReplicas) {
		t.Fatalf("Submit with empty fleet: %v, want ErrNoReplicas", err)
	}
	snap := r.Stats().Snapshot()
	if snap.NoReplicas != 1 || snap.Failed != 1 {
		t.Fatalf("snapshot = %+v, want no_replicas=1 failed=1", snap)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, _ := fakeFleet(clock, "r0")
	r := route.New(route.Options{Clock: clock}, reps...)
	r.Close()
	r.Close() // idempotent
	if _, err := r.Submit(context.Background(), "m", testInput()); !errors.Is(err, route.ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

func TestCloseWaitsForInFlight(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, fakes := fakeFleet(clock, "r0")
	fakes[0].Gate = make(chan struct{})
	fakes[0].Received = make(chan string, 1)
	r := route.New(route.Options{Clock: clock}, reps...)

	done := make(chan error, 1)
	go func() {
		_, err := r.Submit(context.Background(), "m", testInput())
		done <- err
	}()
	<-fakes[0].Received

	closed := make(chan struct{})
	go func() { r.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a request was in flight")
	case <-time.After(10 * time.Millisecond):
	}
	close(fakes[0].Gate)
	if err := <-done; err != nil {
		t.Fatalf("in-flight Submit after Close: %v", err)
	}
	<-closed
}

func TestSubmitCanceledContext(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, fakes := fakeFleet(clock, "r0")
	r := route.New(route.Options{Clock: clock}, reps...)
	defer r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Submit(ctx, "m", testInput()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with canceled ctx: %v, want context.Canceled", err)
	}
	if n := fakes[0].CallCount(); n != 0 {
		t.Fatalf("replica saw %d calls for a pre-canceled request", n)
	}
}

// TestAdmissionThrottle pins token-bucket behavior against the fake clock:
// the burst admits, the next request bounces with ErrThrottled, and exactly
// one more token exists after exactly one second of refill.
func TestAdmissionThrottle(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, _ := fakeFleet(clock, "r0")
	r := route.New(route.Options{Clock: clock, Rate: 1, Burst: 2}, reps...)
	defer r.Close()

	for i := 0; i < 2; i++ {
		if _, err := r.Submit(context.Background(), "m", testInput()); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	if _, err := r.Submit(context.Background(), "m", testInput()); !errors.Is(err, route.ErrThrottled) {
		t.Fatalf("over-burst submit: %v, want ErrThrottled", err)
	}

	clock.Advance(time.Second)
	if _, err := r.Submit(context.Background(), "m", testInput()); err != nil {
		t.Fatalf("submit after refill: %v", err)
	}
	if _, err := r.Submit(context.Background(), "m", testInput()); !errors.Is(err, route.ErrThrottled) {
		t.Fatalf("second submit after 1s refill: %v, want ErrThrottled (only 1 token refilled)", err)
	}

	snap := r.Stats().Snapshot()
	if snap.Throttled != 2 || snap.Completed != 3 {
		t.Fatalf("snapshot = %+v, want throttled=2 completed=3", snap)
	}
}

// TestSchedOrderGolden pins the exact dispatch order each scheduler produces
// for the same parked backlog: one dispatch slot, the replica gated shut, a
// head request occupying the slot, then three waiters enqueued in a known
// arrival order. Releasing the replica step by step reveals the order the
// gate granted slots in.
func TestSchedOrderGolden(t *testing.T) {
	type wreq struct {
		model string
		class route.SLOClass
	}
	waiters := []wreq{
		{"slow", route.ClassBatch},
		{"mid", route.ClassInteractive},
		{"fast", route.ClassStandard},
	}
	seeds := map[string]float64{"slow": 50, "mid": 5, "fast": 1, "head": 1}

	cases := []struct {
		mode route.SchedMode
		want []string
	}{
		{route.FCFS, []string{"slow", "mid", "fast"}},
		{route.Priority, []string{"mid", "fast", "slow"}}, // interactive > standard > batch
		{route.SJF, []string{"fast", "mid", "slow"}},      // smallest predicted latency first
	}
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			clock := routetest.NewFakeClock()
			reps, fakes := fakeFleet(clock, "r0")
			rep := fakes[0]
			rep.Gate = make(chan struct{})
			rep.Received = make(chan string, 8)
			r := route.New(route.Options{
				Clock:          clock,
				MaxInFlight:    1,
				Sched:          tc.mode,
				EstimateSeedMS: seeds,
			}, reps...)
			defer r.Close()

			var wg sync.WaitGroup
			submit := func(model string, class route.SLOClass) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := r.SubmitClass(context.Background(), class, model, testInput()); err != nil {
						t.Errorf("SubmitClass(%s): %v", model, err)
					}
				}()
			}

			submit("head", route.ClassStandard)
			if got := <-rep.Received; got != "head" {
				t.Fatalf("head arrival = %q", got)
			}
			for i, w := range waiters {
				submit(w.model, w.class)
				n := i + 1
				waitUntil(t, fmt.Sprintf("%d waiters parked", n), func() bool { return r.Waiting() == n })
			}

			var order []string
			for range waiters {
				rep.Gate <- struct{}{} // finish the current occupant
				order = append(order, <-rep.Received)
			}
			rep.Gate <- struct{}{} // finish the last one
			wg.Wait()

			for i, w := range tc.want {
				if order[i] != w {
					t.Fatalf("%s dispatch order = %v, want %v", tc.mode, order, tc.want)
				}
			}
		})
	}
}

// TestGateAbandonedWaiter pins the grant-vs-cancel handoff: a waiter whose
// context ends while parked releases its claim, and the slot still reaches
// the next waiter.
func TestGateAbandonedWaiter(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, fakes := fakeFleet(clock, "r0")
	rep := fakes[0]
	rep.Gate = make(chan struct{})
	rep.Received = make(chan string, 4)
	r := route.New(route.Options{Clock: clock, MaxInFlight: 1}, reps...)
	defer r.Close()

	head := make(chan error, 1)
	go func() {
		_, err := r.Submit(context.Background(), "head", testInput())
		head <- err
	}()
	<-rep.Received

	wctx, wcancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, err := r.Submit(wctx, "abandoned", testInput())
		abandoned <- err
	}()
	waitUntil(t, "first waiter parked", func() bool { return r.Waiting() == 1 })

	last := make(chan error, 1)
	go func() {
		_, err := r.Submit(context.Background(), "last", testInput())
		last <- err
	}()
	waitUntil(t, "second waiter parked", func() bool { return r.Waiting() == 2 })

	wcancel()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned waiter: %v, want context.Canceled", err)
	}

	rep.Gate <- struct{}{} // finish head; slot must skip the abandoned waiter
	if got := <-rep.Received; got != "last" {
		t.Fatalf("next dispatch = %q, want last", got)
	}
	rep.Gate <- struct{}{}
	if err := <-head; err != nil {
		t.Fatalf("head: %v", err)
	}
	if err := <-last; err != nil {
		t.Fatalf("last: %v", err)
	}
	if n := rep.CallCount(); n != 2 {
		t.Fatalf("replica saw %d calls, want 2 (abandoned request never dispatched)", n)
	}
}

// staticPolicy always prefers the first replica of whatever subset it is
// offered, making primary/hedge/retry placement fully deterministic.
type staticPolicy struct{}

func (staticPolicy) Name() string                     { return "static" }
func (staticPolicy) Pick(string, []route.Replica) int { return 0 }

// TestErrorRetry pins immediate redispatch: a retryable primary failure goes
// to the next untried replica within the attempt budget; the original error
// surfaces if every attempt fails.
func TestErrorRetry(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, fakes := fakeFleet(clock, "r0", "r1")
	boom := errors.New("transient replica fault")
	fakes[0].Err = func(int, string) error { return boom }
	r := route.New(route.Options{Clock: clock, Policy: staticPolicy{}, RetryOnError: true}, reps...)
	defer r.Close()

	resp, err := r.Submit(context.Background(), "m", testInput())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.Replica != "r1" || resp.Hedged {
		t.Fatalf("resp = {Replica:%s Hedged:%v}, want retry win on r1", resp.Replica, resp.Hedged)
	}
	snap := r.Stats().Snapshot()
	if snap.Retries != 1 || snap.Completed != 1 {
		t.Fatalf("snapshot = %+v, want retries=1 completed=1", snap)
	}
	if pr := snap.PerReplica["r0"]; pr.Failed != 1 {
		t.Fatalf("r0 stats = %+v, want failed=1", pr)
	}
	if pr := snap.PerReplica["r1"]; pr.Retries != 1 || pr.Completed != 1 {
		t.Fatalf("r1 stats = %+v, want retries=1 completed=1", pr)
	}

	// Both replicas failing: the first error comes back, attempts capped.
	fakes[1].Err = func(int, string) error { return errors.New("other fault") }
	_, err = r.Submit(context.Background(), "m", testInput())
	if !errors.Is(err, boom) {
		t.Fatalf("all-fail Submit: %v, want first error %v", err, boom)
	}
	if n := fakes[0].CallCount() + fakes[1].CallCount(); n != 4 {
		t.Fatalf("total attempts = %d, want 4 (2 per request, the retry budget)", n)
	}
}

// TestNoRetryOnModelNotFound pins that a uniform-fleet error is not
// redispatched: every replica would answer the same.
func TestNoRetryOnModelNotFound(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, fakes := fakeFleet(clock, "r0", "r1")
	fakes[0].Err = func(int, string) error { return serve.ErrModelNotFound }
	r := route.New(route.Options{Clock: clock, Policy: staticPolicy{}, RetryOnError: true}, reps...)
	defer r.Close()

	if _, err := r.Submit(context.Background(), "ghost", testInput()); !errors.Is(err, serve.ErrModelNotFound) {
		t.Fatalf("Submit: %v, want ErrModelNotFound", err)
	}
	if n := fakes[1].CallCount(); n != 0 {
		t.Fatalf("r1 saw %d calls, want 0 (not-found is not retryable)", n)
	}
}

// TestReplicaJoinDrain pins membership semantics: a joined replica is
// eligible for the very next pick; a drained one stops receiving new
// attempts while its in-flight request finishes normally.
func TestReplicaJoinDrain(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, fakes := fakeFleet(clock, "r0")
	r := route.New(route.Options{Clock: clock, Policy: route.LeastLoaded{}}, reps...)
	defer r.Close()

	if _, err := r.Submit(context.Background(), "m", testInput()); err != nil {
		t.Fatal(err)
	}

	joined := routetest.NewFakeReplica("r1", clock)
	fakes[0].SetLoad(5)
	r.AddReplica(joined)
	resp, err := r.Submit(context.Background(), "m", testInput())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Replica != "r1" {
		t.Fatalf("pick after join = %s, want r1 (least loaded)", resp.Replica)
	}

	// Drain r0 while a request is in flight on it.
	fakes[0].SetLoad(0)
	fakes[0].Gate = make(chan struct{})
	fakes[0].Received = make(chan string, 1)
	inflight := make(chan error, 1)
	go func() {
		_, err := r.Submit(context.Background(), "m", testInput())
		inflight <- err
	}()
	<-fakes[0].Received
	if !r.RemoveReplica("r0") {
		t.Fatal("RemoveReplica(r0) = false")
	}
	if r.RemoveReplica("r0") {
		t.Fatal("second RemoveReplica(r0) = true")
	}

	// New traffic only reaches r1 now.
	for i := 0; i < 3; i++ {
		resp, err := r.Submit(context.Background(), "m", testInput())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Replica != "r1" {
			t.Fatalf("post-drain pick = %s, want r1", resp.Replica)
		}
	}
	// The drained replica's in-flight request still completes.
	close(fakes[0].Gate)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request on drained replica: %v", err)
	}
}

// TestSJFEstimatorLearns pins the EWMA overlay: after traffic, the measured
// latency (driven by the fake clock) overrides the static seed, reordering
// SJF dispatch.
func TestSJFEstimatorLearns(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, fakes := fakeFleet(clock, "r0")
	rep := fakes[0]
	// "claimed-fast" is seeded fast but actually takes 80ms of simulated
	// time; "honest" is seeded at 40ms and takes 0.
	rep.Latency = func(_ int, model string) time.Duration {
		if model == "claimed-fast" {
			return 80 * time.Millisecond
		}
		return 0
	}
	r := route.New(route.Options{
		Clock:          clock,
		MaxInFlight:    1,
		Sched:          route.SJF,
		EstimateSeedMS: map[string]float64{"claimed-fast": 1, "honest": 40},
	}, reps...)
	defer r.Close()

	// Prime the EWMA: one measured request for claimed-fast (80ms observed).
	done := make(chan error, 1)
	go func() {
		_, err := r.Submit(context.Background(), "claimed-fast", testInput())
		done <- err
	}()
	waitUntil(t, "latency timer armed", func() bool { return clock.Timers() >= 1 })
	clock.Advance(80 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Park both models behind an occupied slot; SJF must now dispatch
	// "honest" (40ms seed) before "claimed-fast" (80ms measured EWMA),
	// the reverse of the seed order.
	rep.Latency = nil
	rep.Gate = make(chan struct{})
	rep.Received = make(chan string, 4)
	var wg sync.WaitGroup
	submit := func(model string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Submit(context.Background(), model, testInput()); err != nil {
				t.Errorf("Submit(%s): %v", model, err)
			}
		}()
	}
	submit("head")
	<-rep.Received
	submit("claimed-fast")
	waitUntil(t, "first waiter", func() bool { return r.Waiting() == 1 })
	submit("honest")
	waitUntil(t, "second waiter", func() bool { return r.Waiting() == 2 })

	rep.Gate <- struct{}{}
	if got := <-rep.Received; got != "honest" {
		t.Fatalf("post-EWMA SJF dispatched %q first, want honest", got)
	}
	rep.Gate <- struct{}{}
	<-rep.Received
	rep.Gate <- struct{}{}
	wg.Wait()
}
