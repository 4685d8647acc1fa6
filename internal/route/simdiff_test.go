package route_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"drainnas/internal/latmeter"
	"drainnas/internal/route"
	"drainnas/internal/route/routetest"
	"drainnas/internal/sim"
)

// The tests in this file hold internal/sim to the live routing tier: one
// scripted arrival sequence goes through the real code on a FakeClock and
// through sim.Run, and every per-request decision must come out the same.
// Each request carries its own model key, so the simulator's per-model
// completion hook identifies it.

// scripted is one request of a differential script. Its service time is
// also its SJF estimate (the router is seeded with it, the simulator
// derives it from the service model), as for a perfectly predicted model.
type scripted struct {
	at      time.Duration
	class   route.SLOClass
	service time.Duration
}

func modelKey(i int) string { return fmt.Sprintf("m%03d", i) }

func modelIndex(t *testing.T, key string) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(key, "m%03d", &i); err != nil {
		t.Fatalf("unexpected model key %q", key)
	}
	return i
}

// script draws n arrivals in bursts (0–2 ms apart) with mixed classes and
// three service times. Arrival i is offset by i µs, so no two events of a
// run — arrivals, or completions a whole number of milliseconds after the
// arrival that started the chain — ever share an instant and both worlds
// order them the same way without a tie-break rule.
func script(seed int64, n int) []scripted {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]scripted, n)
	var at time.Duration
	for i := range reqs {
		at += time.Duration(rng.Intn(3)) * time.Millisecond
		reqs[i] = scripted{
			at:      at + time.Duration(i)*time.Microsecond,
			class:   route.SLOClass(rng.Intn(3)),
			service: time.Duration([]int{2, 5, 9}[rng.Intn(3)]) * time.Millisecond,
		}
	}
	return reqs
}

// decisions is what one world decided for a script: which requests the
// bucket refused, each served request's admission-to-response latency, and
// the order parked requests were granted dispatch slots in.
type decisions struct {
	throttled []int
	latency   map[int]time.Duration
	grants    []int
}

// simulate runs the script through sim.Run: one replica that never batches
// and never queues behind a worker, so the only waiting is at the gate.
func simulate(t *testing.T, reqs []scripted, mode route.SchedMode, maxInFlight int, rate, burst float64) decisions {
	t.Helper()
	workers := maxInFlight
	if workers <= 0 {
		workers = len(reqs)
	}
	d, _ := simulateFleet(t, reqs, sim.Config{
		Replicas: 1, Workers: workers,
		AdmitRate: rate, AdmitBurst: burst, MaxInFlight: maxInFlight, Sched: mode,
	})
	return d
}

// simulateFleet runs the script through sim.Run under cfg, on replicas that
// never batch (MaxBatch 1) and never reject (QueueCap above the script).
func simulateFleet(t *testing.T, reqs []scripted, cfg sim.Config) (decisions, sim.Report) {
	t.Helper()
	models := make(map[string]latmeter.ServiceModel, len(reqs))
	arrivals := make([]sim.Arrival, len(reqs))
	for i, q := range reqs {
		models[modelKey(i)] = latmeter.ServiceModel{PerItemMS: float64(q.service) / float64(time.Millisecond)}
		arrivals[i] = sim.Arrival{At: q.at, Model: modelKey(i), Class: q.class, C: 3, H: 8, W: 8}
	}
	d := decisions{latency: map[int]time.Duration{}}
	cfg.MaxBatch, cfg.QueueCap, cfg.Models = 1, len(reqs)+1, models
	cfg.OnComplete = func(model string, lat time.Duration) { d.latency[modelIndex(t, model)] = lat }
	rep, err := sim.Run(cfg, arrivals)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if rep.Rejected != 0 {
		t.Fatalf("simulated replica rejected %d requests; the script must only exercise the router", rep.Rejected)
	}
	var parked []int
	for i, q := range reqs {
		lat, served := d.latency[i]
		switch {
		case !served:
			d.throttled = append(d.throttled, i)
		case lat > q.service:
			parked = append(parked, i)
		}
	}
	if uint64(len(d.throttled)) != rep.Throttled {
		t.Fatalf("simulator reports %d throttled, %d requests never completed", rep.Throttled, len(d.throttled))
	}
	// A parked request was granted its slot one service time before it
	// completed.
	grantedAt := func(i int) time.Duration { return reqs[i].at + d.latency[i] - reqs[i].service }
	sort.Slice(parked, func(a, b int) bool { return grantedAt(parked[a]) < grantedAt(parked[b]) })
	d.grants = parked
	return d, rep
}

// serveLive runs the script through a real route.Router over one
// FakeReplica.
func serveLive(t *testing.T, reqs []scripted, mode route.SchedMode, maxInFlight int, rate, burst float64) decisions {
	t.Helper()
	clock := routetest.NewFakeClock()
	return serveFleet(t, reqs, clock, route.Options{
		MaxInFlight: maxInFlight, Sched: mode, Rate: rate, Burst: burst,
	}, routetest.NewFakeReplica("r0", clock))
}

// serveFleet runs the script through a real route.Router under opts over
// the given FakeReplicas, stepping clock from event to event: each arrival
// is submitted at its instant and followed until the router has throttled,
// dispatched or parked it; each completion is a replica's latency timer
// firing.
func serveFleet(t *testing.T, reqs []scripted, clock *routetest.FakeClock, opts route.Options, fleet ...*routetest.FakeReplica) decisions {
	t.Helper()
	received := make(chan string, len(reqs))
	replicas := make([]route.Replica, len(fleet))
	for i, rep := range fleet {
		rep.Received = received
		rep.Latency = func(_ int, model string) time.Duration { return reqs[modelIndex(t, model)].service }
		replicas[i] = rep
	}
	seeds := make(map[string]float64, len(reqs))
	for i, q := range reqs {
		seeds[modelKey(i)] = float64(q.service) / float64(time.Millisecond)
	}
	opts.Clock, opts.EstimateSeedMS = clock, seeds
	r := route.New(opts, replicas...)
	defer r.Close()

	type outcome struct {
		i   int
		err error
	}
	done := make(chan outcome, len(reqs))
	d := decisions{latency: map[int]time.Duration{}}
	var now time.Duration // fake time since the router was built
	advanceTo := func(at time.Duration) { clock.Advance(at - now); now = at }
	finishAt := map[int]time.Duration{} // dispatched request → completion instant
	waiting := 0
	dispatched := func(model string) int {
		i := modelIndex(t, model)
		finishAt[i] = now + reqs[i].service
		if !clock.AwaitTimers(len(finishAt)) {
			t.Fatalf("replica never armed the latency timer of request %d", i)
		}
		return i
	}
	giveUp := time.After(30 * time.Second)

	for next := 0; next < len(reqs) || len(finishAt) > 0; {
		due, dueAt := -1, time.Duration(0)
		for i, at := range finishAt {
			if due < 0 || at < dueAt {
				due, dueAt = i, at
			}
		}
		if next < len(reqs) && (due < 0 || reqs[next].at < dueAt) {
			i, q := next, reqs[next]
			next++
			advanceTo(q.at)
			go func() {
				_, err := r.SubmitClass(context.Background(), q.class, modelKey(i), testInput())
				done <- outcome{i, err}
			}()
			for settled := false; !settled; {
				select {
				case o := <-done:
					if o.i != i || !errors.Is(o.err, route.ErrThrottled) {
						t.Fatalf("request %d returned (%v) while request %d was arriving", o.i, o.err, i)
					}
					d.throttled = append(d.throttled, i)
					settled = true
				case m := <-received:
					if got := dispatched(m); got != i {
						t.Fatalf("request %d dispatched while request %d was arriving", got, i)
					}
					settled = true
				case <-giveUp:
					t.Fatalf("request %d neither throttled, dispatched nor parked", i)
				default:
					if r.Waiting() == waiting+1 {
						waiting++
						settled = true
					} else {
						time.Sleep(50 * time.Microsecond)
					}
				}
			}
			continue
		}

		advanceTo(dueAt)
		select {
		case o := <-done:
			if o.i != due || o.err != nil {
				t.Fatalf("at %v request %d returned (%v), want request %d served", now, o.i, o.err, due)
			}
		case <-giveUp:
			t.Fatalf("request %d never completed", due)
		}
		d.latency[due] = now - reqs[due].at
		delete(finishAt, due)
		if waiting > 0 {
			// The freed slot goes to a parked request at once.
			select {
			case m := <-received:
				waiting--
				d.grants = append(d.grants, dispatched(m))
			case <-giveUp:
				t.Fatalf("slot freed by request %d reached no waiter", due)
			}
		}
	}
	return d
}

// TestSimMatchesLiveRouter is the sim-vs-live differential: token-bucket
// admission and the dispatch gate decide identically in both worlds for
// every scheduler — same requests throttled, same grant order at the gate,
// same latency for every served request to the nanosecond.
func TestSimMatchesLiveRouter(t *testing.T) {
	const maxInFlight, rate, burst = 3, 700, 4
	for _, mode := range []route.SchedMode{route.FCFS, route.Priority, route.SJF} {
		t.Run(mode.String(), func(t *testing.T) {
			reqs := script(11, 80)
			live := serveLive(t, reqs, mode, maxInFlight, rate, burst)
			simd := simulate(t, reqs, mode, maxInFlight, rate, burst)

			if len(live.throttled) == 0 || len(live.grants) < 10 {
				t.Fatalf("script too gentle to tell anything: %d throttled, %d parked",
					len(live.throttled), len(live.grants))
			}
			if !reflect.DeepEqual(live.throttled, simd.throttled) {
				t.Errorf("throttled requests differ:\n live %v\n sim  %v", live.throttled, simd.throttled)
			}
			if !reflect.DeepEqual(live.grants, simd.grants) {
				t.Errorf("gate grant order differs:\n live %v\n sim  %v", live.grants, simd.grants)
			}
			if !reflect.DeepEqual(live.latency, simd.latency) {
				t.Errorf("per-request latency differs:\n live %v\n sim  %v", live.latency, simd.latency)
			}
		})
	}
}

// TestSimMatchesLiveTokenBucket is the regression test for the simulator's
// invented burst default: the same (rate, burst, arrival instants) through
// route.TokenBucket on a FakeClock and through sim.Run must throttle exactly
// the same requests — including a burst left at 0 (the simulator used to
// read that as "burst = rate") and a burst below 1 (it used to never admit;
// live raises it to 1).
func TestSimMatchesLiveTokenBucket(t *testing.T) {
	reqs := script(5, 120)
	for _, tc := range []struct{ rate, burst float64 }{
		{400, 0}, {400, 0.5}, {400, 1}, {250, 6}, {0, 0},
	} {
		t.Run(fmt.Sprintf("rate%v_burst%v", tc.rate, tc.burst), func(t *testing.T) {
			clock := routetest.NewFakeClock()
			tb := route.NewTokenBucket(tc.rate, tc.burst, clock)
			var live []int
			var now time.Duration
			for i, q := range reqs {
				clock.Advance(q.at - now)
				now = q.at
				if !tb.Allow() {
					live = append(live, i)
				}
			}
			simd := simulate(t, reqs, route.FCFS, 0, tc.rate, tc.burst).throttled

			if tc.rate > 0 && (len(live) == 0 || len(live) == len(reqs)) {
				t.Fatalf("script tells nothing: %d of %d throttled live", len(live), len(reqs))
			}
			if !reflect.DeepEqual(live, simd) {
				t.Errorf("throttled requests differ:\n live %v\n sim  %v", live, simd)
			}
		})
	}
}

// TestSimMatchesLivePlacement holds the simulator's placement to the live
// router's for each of the router's policies: the same scripted arrivals
// over three replicas with the simulator's IDs, none batching or queueing,
// must reach each replica the same number of times in both worlds, and
// every request must take the same time.
func TestSimMatchesLivePlacement(t *testing.T) {
	for _, name := range []string{route.PolicyRoundRobin, route.PolicyLeastLoaded, route.PolicyAffinity} {
		t.Run(name, func(t *testing.T) {
			reqs := script(11, 80)
			policy, err := route.PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			clock := routetest.NewFakeClock()
			fleet := make([]*routetest.FakeReplica, 3)
			for i := range fleet {
				fleet[i] = routetest.NewFakeReplica(fmt.Sprintf("replica-%d", i), clock)
			}
			live := serveFleet(t, reqs, clock, route.Options{Policy: policy}, fleet...)
			simd, rep := simulateFleet(t, reqs, sim.Config{Replicas: len(fleet), Workers: len(reqs), Policy: name})

			if len(live.latency) != len(reqs) {
				t.Fatalf("live served %d of %d requests", len(live.latency), len(reqs))
			}
			for i, f := range fleet {
				got := rep.ReplicaStats[i]
				if got.ID != f.ID() || got.Requests != uint64(f.CallCount()) {
					t.Errorf("%s got %d requests live, simulated %s got %d", f.ID(), f.CallCount(), got.ID, got.Requests)
				}
			}
			if !reflect.DeepEqual(live.latency, simd.latency) {
				t.Errorf("per-request latency differs:\n live %v\n sim  %v", live.latency, simd.latency)
			}
		})
	}
}
