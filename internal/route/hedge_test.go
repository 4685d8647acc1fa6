package route_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"drainnas/internal/route"
	"drainnas/internal/route/routetest"
)

// TestHedgeBeatsStraggler pins the headline hedging behavior: the primary
// hangs, the hedge deadline fires on the fake clock, the hedge attempt wins
// on a different replica, and the hung primary observes its context being
// canceled — the loser-cancellation half of the contract.
func TestHedgeBeatsStraggler(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, fakes := fakeFleet(clock, "r0", "r1")
	fakes[0].Hang = func(int, string) bool { return true }
	fakes[0].Received = make(chan string, 1)
	r := route.New(route.Options{
		Clock:      clock,
		Policy:     staticPolicy{},
		HedgeAfter: 50 * time.Millisecond,
	}, reps...)
	defer r.Close()

	done := make(chan route.Response, 1)
	go func() {
		resp, err := r.Submit(context.Background(), "m", testInput())
		if err != nil {
			t.Errorf("hedged Submit: %v", err)
		}
		done <- resp
	}()

	<-fakes[0].Received // primary is hanging on r0
	if !clock.AwaitTimers(1) {
		t.Fatal("hedge timer never armed")
	}
	clock.Advance(50 * time.Millisecond)

	resp := <-done
	if resp.Replica != "r1" || !resp.Hedged {
		t.Fatalf("resp = {Replica:%s Hedged:%v}, want hedge win on r1", resp.Replica, resp.Hedged)
	}
	waitUntil(t, "straggler cancellation", func() bool { return fakes[0].CanceledCount() == 1 })

	snap := r.Stats().Snapshot()
	if snap.HedgesLaunched != 1 || snap.HedgeWins != 1 || snap.LosersCanceled != 1 {
		t.Fatalf("snapshot = %+v, want hedges=1 wins=1 losers_canceled=1", snap)
	}
	if pr := snap.PerReplica["r1"]; pr.Hedges != 1 || pr.Completed != 1 {
		t.Fatalf("r1 stats = %+v, want hedges=1 completed=1", pr)
	}
}

// TestPrimaryBeatsHedge pins the other race outcome: the hedge launches but
// the primary answers first, so the response is not marked hedged and the
// hedge attempt is the one canceled.
func TestPrimaryBeatsHedge(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, fakes := fakeFleet(clock, "r0", "r1")
	fakes[0].Latency = func(int, string) time.Duration { return 30 * time.Millisecond }
	fakes[0].Received = make(chan string, 1)
	fakes[1].Hang = func(int, string) bool { return true } // hedge becomes the straggler
	fakes[1].Received = make(chan string, 1)
	r := route.New(route.Options{
		Clock:      clock,
		Policy:     staticPolicy{},
		HedgeAfter: 10 * time.Millisecond,
	}, reps...)
	defer r.Close()

	done := make(chan route.Response, 1)
	go func() {
		resp, err := r.Submit(context.Background(), "m", testInput())
		if err != nil {
			t.Errorf("Submit: %v", err)
		}
		done <- resp
	}()

	<-fakes[0].Received // primary waiting out its 30ms latency
	if !clock.AwaitTimers(2) {
		t.Fatal("hedge + latency timers never armed")
	}
	clock.Advance(10 * time.Millisecond) // hedge deadline fires
	<-fakes[1].Received                  // hedge is hanging on r1
	clock.Advance(20 * time.Millisecond) // primary's latency elapses

	resp := <-done
	if resp.Replica != "r0" || resp.Hedged {
		t.Fatalf("resp = {Replica:%s Hedged:%v}, want primary win on r0", resp.Replica, resp.Hedged)
	}
	waitUntil(t, "hedge cancellation", func() bool { return fakes[1].CanceledCount() == 1 })

	snap := r.Stats().Snapshot()
	if snap.HedgesLaunched != 1 || snap.HedgeWins != 0 || snap.LosersCanceled != 1 {
		t.Fatalf("snapshot = %+v, want hedges=1 wins=0 losers_canceled=1", snap)
	}
}

// TestHedgeSingleReplica pins that hedging degrades cleanly when there is
// nowhere else to go: with one replica the deadline is not even armed, and
// the request completes normally.
func TestHedgeSingleReplica(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, fakes := fakeFleet(clock, "r0")
	fakes[0].Latency = func(int, string) time.Duration { return 100 * time.Millisecond }
	fakes[0].Received = make(chan string, 1)
	r := route.New(route.Options{Clock: clock, HedgeAfter: 10 * time.Millisecond}, reps...)
	defer r.Close()

	done := make(chan error, 1)
	go func() {
		_, err := r.Submit(context.Background(), "m", testInput())
		done <- err
	}()
	<-fakes[0].Received
	if !clock.AwaitTimers(1) { // only the replica's latency timer
		t.Fatal("latency timer never armed")
	}
	clock.Advance(100 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap := r.Stats().Snapshot(); snap.HedgesLaunched != 0 {
		t.Fatalf("hedges launched = %d on a single-replica fleet", snap.HedgesLaunched)
	}
}

// TestHedgeNoGoroutineLeak pins the leak guarantee from the Replica
// contract: a hung straggler's goroutine and context must be reclaimed once
// the hedge wins — across many requests, the goroutine count returns to
// baseline instead of growing by one hung attempt per request.
func TestHedgeNoGoroutineLeak(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, fakes := fakeFleet(clock, "r0", "r1")
	fakes[0].Hang = func(int, string) bool { return true }
	fakes[0].Received = make(chan string, 1)
	r := route.New(route.Options{
		Clock:      clock,
		Policy:     staticPolicy{},
		HedgeAfter: 50 * time.Millisecond,
	}, reps...)
	defer r.Close()

	runtime.GC()
	baseline := runtime.NumGoroutine()

	const requests = 25
	for i := 0; i < requests; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := r.Submit(context.Background(), "m", testInput())
			done <- err
		}()
		<-fakes[0].Received
		if !clock.AwaitTimers(1) {
			t.Fatalf("request %d: hedge timer never armed", i)
		}
		clock.Advance(50 * time.Millisecond)
		if err := <-done; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	waitUntil(t, "all stragglers canceled", func() bool {
		return fakes[0].CanceledCount() == requests
	})
	waitUntil(t, "goroutines back to baseline", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestHedgeRespectsMaxAttempts pins that the two-attempt budget caps
// hedging: with error retry and a hedge deadline both on, a primary that
// fails retryably spends the budget on its retry, so when the deadline
// passes with the retry hung, the third replica sees no hedge and the
// caller's cancellation is the only way out.
func TestHedgeRespectsMaxAttempts(t *testing.T) {
	clock := routetest.NewFakeClock()
	reps, fakes := fakeFleet(clock, "r0", "r1", "r2")
	fakes[0].Err = func(int, string) error { return errors.New("transient replica fault") }
	fakes[1].Hang = func(int, string) bool { return true }
	fakes[1].Received = make(chan string, 1)
	fakes[2].Received = make(chan string, 1)
	r := route.New(route.Options{
		Clock:        clock,
		Policy:       staticPolicy{},
		HedgeAfter:   50 * time.Millisecond,
		RetryOnError: true,
	}, reps...)
	defer r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.Submit(ctx, "m", testInput())
		done <- err
	}()
	// The retry reaching r1 means the router has spent both attempts and
	// waits on its select; the deadline it then sees must launch nothing.
	<-fakes[1].Received
	clock.Advance(50 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit: %v, want context.Canceled", err)
	}
	if snap := r.Stats().Snapshot(); snap.HedgesLaunched != 0 || snap.Retries != 1 {
		t.Fatalf("snapshot = %+v, want hedges=0 retries=1", snap)
	}
	select {
	case <-fakes[2].Received:
		t.Fatal("r2 saw a hedge beyond the two-attempt budget")
	default:
	}
	waitUntil(t, "retry canceled", func() bool { return fakes[1].CanceledCount() == 1 })
}
