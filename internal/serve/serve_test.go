package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drainnas/internal/infer"
	"drainnas/internal/metrics"
	"drainnas/internal/onnxsize"
	"drainnas/internal/profiler"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// tinyContainer exports a minimal trained-shape model and returns its
// container bytes. Kept deliberately small so race-instrumented runs stay
// fast.
func tinyContainer(tb testing.TB, seed uint64) []byte {
	tb.Helper()
	cfg := resnet.Config{
		Channels: 3, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 4, NumClasses: 2,
	}
	m, err := resnet.New(cfg, tensor.NewRNG(seed))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := onnxsize.Export(m, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// testLoader serves the same tiny container for every key and counts loads.
func testLoader(tb testing.TB) (func(string) (*infer.Plan, error), *atomic.Int64) {
	tb.Helper()
	container := tinyContainer(tb, 7)
	var loads atomic.Int64
	return func(key string) (*infer.Plan, error) {
		loads.Add(1)
		return infer.LoadPlan(bytes.NewReader(container))
	}, &loads
}

func testInput(seed uint64) *tensor.Tensor {
	return tensor.RandNormal(tensor.NewRNG(seed), 1, 3, 16, 16)
}

func TestSubmitServesAndMatchesDirectRuntime(t *testing.T) {
	loader, _ := testLoader(t)
	rt, err := loader("m")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(loader, Options{MaxBatch: 4, MaxDelay: time.Millisecond})
	defer s.Close()

	x := testInput(3)
	resp, err := s.Submit(context.Background(), "m", x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rt.RunBatch([]*tensor.Tensor{x})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Class != want[0].Class {
		t.Fatalf("served class %d, direct runtime class %d", resp.Class, want[0].Class)
	}
	for i := range resp.Logits {
		if d := math.Abs(float64(resp.Logits[i] - want[0].Logits[i])); d > 1e-6 {
			t.Fatalf("logit %d: served %v vs direct %v", i, resp.Logits[i], want[0].Logits[i])
		}
	}
	if resp.BatchSize < 1 {
		t.Fatalf("batch size %d", resp.BatchSize)
	}
}

func TestFlushOnMaxBatch(t *testing.T) {
	loader, _ := testLoader(t)
	stats := &metrics.ServingStats{}
	// MaxDelay is far beyond the test deadline: only the size trigger can
	// flush.
	s := NewServer(loader, Options{MaxBatch: 4, MaxDelay: time.Minute, Stats: stats})
	defer s.Close()

	var wg sync.WaitGroup
	responses := make([]Response, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), "m", testInput(uint64(i)))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			responses[i] = resp
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("size-triggered flush never happened")
	}
	snap := stats.Snapshot()
	if snap.Completed != 4 {
		t.Fatalf("completed %d, want 4 (%+v)", snap.Completed, snap)
	}
	// All four waited on the same group, so at least one response rode in a
	// multi-request batch.
	maxBatch := 0
	for _, r := range responses {
		if r.BatchSize > maxBatch {
			maxBatch = r.BatchSize
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no batching observed: max batch size %d", maxBatch)
	}
}

func TestFlushOnMaxDelay(t *testing.T) {
	loader, _ := testLoader(t)
	s := NewServer(loader, Options{MaxBatch: 64, MaxDelay: 2 * time.Millisecond})
	defer s.Close()
	// A single request can never hit MaxBatch; only the deadline serves it.
	resp, err := s.Submit(context.Background(), "m", testInput(1))
	if err != nil {
		t.Fatal(err)
	}
	if resp.BatchSize != 1 {
		t.Fatalf("batch size %d, want 1", resp.BatchSize)
	}
}

func TestQueueFullRejection(t *testing.T) {
	loader, _ := testLoader(t)
	stats := &metrics.ServingStats{}
	s := NewServer(loader, Options{MaxBatch: 64, MaxDelay: time.Minute, QueueCap: 3, Stats: stats})

	// Fill the queue with requests that cannot flush (size 64 batch, 1min
	// delay), then overflow it.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), "m", testInput(uint64(i))); err != nil {
				t.Errorf("queued submit %d: %v", i, err)
			}
		}(i)
	}
	waitFor(t, func() bool { return s.QueueDepth() == 3 })
	if _, err := s.Submit(context.Background(), "m", testInput(9)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err %v, want ErrQueueFull", err)
	}
	// Close flushes the three queued requests; none may be lost.
	s.Close()
	wg.Wait()
	snap := stats.Snapshot()
	if snap.Completed != 3 || snap.Rejected != 1 {
		t.Fatalf("completed=%d rejected=%d, want 3/1 (%+v)", snap.Completed, snap.Rejected, snap)
	}
	if _, err := s.Submit(context.Background(), "m", testInput(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: err %v, want ErrClosed", err)
	}
}

func TestContextCancellation(t *testing.T) {
	loader, _ := testLoader(t)
	stats := &metrics.ServingStats{}
	s := NewServer(loader, Options{MaxBatch: 64, MaxDelay: 50 * time.Millisecond, Stats: stats})
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := s.Submit(ctx, "m", testInput(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want deadline exceeded", err)
	}
	snap := stats.Snapshot()
	if snap.Canceled != 1 {
		t.Fatalf("canceled %d, want 1 (%+v)", snap.Canceled, snap)
	}
	// The stale flush must skip the canceled request without executing it.
	time.Sleep(80 * time.Millisecond)
	if got := stats.Snapshot(); got.Completed != 0 || got.Batches != 0 {
		t.Fatalf("canceled request was executed: %+v", got)
	}
	if s.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after cancellation", s.QueueDepth())
	}
}

func TestModelLoadErrorPropagates(t *testing.T) {
	boom := errors.New("no such model")
	s := NewServer(func(key string) (*infer.Plan, error) { return nil, boom }, Options{MaxDelay: time.Millisecond})
	defer s.Close()
	if _, err := s.Submit(context.Background(), "ghost", testInput(1)); !errors.Is(err, boom) {
		t.Fatalf("err %v, want wrapped loader error", err)
	}
	if s.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after failed request", s.QueueDepth())
	}
}

// TestMissingModelIsErrModelNotFound pins the typed-error contract front ends
// rely on to choose a 404 over a 503: a loader failing with fs.ErrNotExist
// (the natural error from a filesystem-backed model dir) surfaces from Submit
// as ErrModelNotFound without losing the original chain, while transient load
// errors stay un-tagged.
func TestMissingModelIsErrModelNotFound(t *testing.T) {
	s := NewServer(func(key string) (*infer.Plan, error) {
		switch key {
		case "ghost":
			return nil, fmt.Errorf("open models/%s.dnnx: %w", key, fs.ErrNotExist)
		case "tagged":
			return nil, fmt.Errorf("registry: %w", ErrModelNotFound)
		default:
			return nil, errors.New("disk on fire")
		}
	}, Options{MaxDelay: time.Millisecond})
	defer s.Close()

	_, err := s.Submit(context.Background(), "ghost", testInput(1))
	if !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("fs.ErrNotExist load: err %v, want ErrModelNotFound", err)
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("fs.ErrNotExist load: err %v lost the original chain", err)
	}
	if _, err := s.Submit(context.Background(), "tagged", testInput(1)); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("pre-tagged load: err %v, want ErrModelNotFound", err)
	}
	if _, err := s.Submit(context.Background(), "flaky", testInput(1)); errors.Is(err, ErrModelNotFound) {
		t.Fatalf("transient load error was tagged not-found: %v", err)
	}
}

// TestConcurrentSubmitFlushClose is the central race test: many submitters
// across several models and both spatial sizes, a concurrent Close midway,
// and strict exactly-once accounting — every accepted request is served
// exactly once, everything after Close is ErrClosed, nothing is lost.
func TestConcurrentSubmitFlushClose(t *testing.T) {
	loader, _ := testLoader(t)
	stats := &metrics.ServingStats{}
	s := NewServer(loader, Options{
		MaxBatch: 4, MaxDelay: 500 * time.Microsecond,
		QueueCap: 1024, Workers: 4, CacheCap: 2, Stats: stats,
	})

	const goroutines = 8
	const perG = 20
	var served, closedErrs atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				model := fmt.Sprintf("m%d", i%3)
				var in *tensor.Tensor
				if i%2 == 0 {
					in = tensor.RandNormal(tensor.NewRNG(uint64(g*1000+i)), 1, 3, 16, 16)
				} else {
					in = tensor.RandNormal(tensor.NewRNG(uint64(g*1000+i)), 1, 1, 3, 16, 16)
				}
				_, err := s.Submit(context.Background(), model, in)
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrClosed):
					closedErrs.Add(1)
				default:
					t.Errorf("goroutine %d req %d: %v", g, i, err)
				}
			}
		}(g)
	}
	// Close midway through the storm: admitted requests must still be
	// served, later ones must fail fast with ErrClosed.
	time.Sleep(5 * time.Millisecond)
	s.Close()
	wg.Wait()

	snap := stats.Snapshot()
	if int64(snap.Completed) != served.Load() {
		t.Fatalf("stats completed %d, callers served %d", snap.Completed, served.Load())
	}
	if served.Load()+closedErrs.Load() != goroutines*perG {
		t.Fatalf("served %d + closed %d != %d submitted", served.Load(), closedErrs.Load(), goroutines*perG)
	}
	if snap.Accepted != snap.Completed {
		t.Fatalf("accepted %d != completed %d: requests lost or duplicated (%+v)",
			snap.Accepted, snap.Completed, snap)
	}
	// Batch accounting must agree with per-request accounting: summed batch
	// sizes equal completed requests (no double execution).
	if snap.Batches > 0 && uint64(snap.MeanBatch*float64(snap.Batches)+0.5) != snap.Completed {
		t.Fatalf("batch-size sum %.1f != completed %d", snap.MeanBatch*float64(snap.Batches), snap.Completed)
	}
	if snap.QueueDepth != 0 {
		t.Fatalf("queue depth %d after close", snap.QueueDepth)
	}
}

// TestConcurrentCancellationStorm mixes short-deadline and patient
// submitters; the invariant is exact partitioning of accepted requests into
// completed and canceled, with the queue fully drained.
func TestConcurrentCancellationStorm(t *testing.T) {
	loader, _ := testLoader(t)
	stats := &metrics.ServingStats{}
	s := NewServer(loader, Options{MaxBatch: 8, MaxDelay: time.Millisecond, QueueCap: 1024, Stats: stats})

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if i%3 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(g%2)*time.Millisecond)
				}
				_, err := s.Submit(ctx, "m", testInput(uint64(g*100+i)))
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("goroutine %d req %d: %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	snap := stats.Snapshot()
	if snap.Completed+snap.Canceled != snap.Accepted {
		t.Fatalf("completed %d + canceled %d != accepted %d (%+v)",
			snap.Completed, snap.Canceled, snap.Accepted, snap)
	}
	if snap.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", snap.QueueDepth)
	}
}

func TestProfilerRecordsServePhases(t *testing.T) {
	loader, _ := testLoader(t)
	prof := profiler.New()
	s := NewServer(loader, Options{MaxDelay: time.Millisecond, Profiler: prof})
	if _, err := s.Submit(context.Background(), "m", testInput(2)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	phases := map[string]bool{}
	for _, st := range prof.Summary() {
		phases[st.Phase] = true
	}
	if !phases["serve/load"] || !phases["serve/forward"] {
		t.Fatalf("profiler phases %v, want serve/load and serve/forward", phases)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	loader, _ := testLoader(t)
	s := NewServer(loader, Options{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Close() }()
	}
	wg.Wait()
}

// groupCount reads the live size of the batching queue map.
func groupCount(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.former.Len()
}

// TestGroupsDoNotLeak is the regression test for the unbounded-queue-map bug:
// empty batchGroup entries used to stay in s.groups forever, one per distinct
// (model, H, W) ever seen, so a client cycling spatial sizes grew the map
// without bound. A group must now live only while it holds queued requests —
// and a pre-expired context must not reach the queue map at all.
func TestGroupsDoNotLeak(t *testing.T) {
	loader, loads := testLoader(t)
	stats := &metrics.ServingStats{}
	// MaxDelay far beyond the test's lifetime: groups are cut only by Close,
	// which keeps the cancel-while-queued leg below deterministic.
	s := NewServer(loader, Options{
		MaxBatch: 64, MaxDelay: time.Minute, QueueCap: 1 << 20, Stats: stats,
	})
	defer s.Close()

	// Leg 1: a context that expired before Submit never enters the queue —
	// no group incarnation, no stats, no model load. 10k distinct (H, W)
	// keys would each have leaked a map entry under the old behavior.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	const distinct = 10000
	for i := 0; i < distinct; i++ {
		h, w := 1+i%100, 1+i/100
		if _, err := s.Submit(expired, "m", tensor.New(1, h, w)); !errors.Is(err, context.Canceled) {
			t.Fatalf("submit %d: err %v, want context.Canceled", i, err)
		}
	}
	if n := groupCount(s); n != 0 {
		t.Fatalf("pre-expired submissions created %d groups", n)
	}
	if snap := stats.Snapshot(); snap.Accepted != 0 || snap.Canceled != 0 || snap.QueueDepth != 0 {
		t.Fatalf("pre-expired submissions touched stats: %+v", snap)
	}

	// Leg 2: requests canceled while queued. Each submitter blocks until its
	// context is cut; the canceled pendings stay in their groups until Close
	// cuts the batches, at which point the executor must claim nothing.
	const queued = 8
	ctx, cancelQueued := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, queued)
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Submit(ctx, "m", tensor.New(1, 4+i, 4+i))
		}(i)
	}
	waitFor(t, func() bool { return groupCount(s) == queued })
	cancelQueued()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued submit %d: err %v, want context.Canceled", i, err)
		}
	}
	s.Close()
	if n := groupCount(s); n != 0 {
		t.Fatalf("%d groups survive Close", n)
	}
	if n := loads.Load(); n != 0 {
		t.Fatalf("canceled-only traffic loaded models %d times", n)
	}
	snap := stats.Snapshot()
	if snap.Canceled != queued || snap.QueueDepth != 0 {
		t.Fatalf("canceled=%d depth=%d, want %d/0 (%+v)", snap.Canceled, snap.QueueDepth, queued, snap)
	}
}

// TestGroupsDeletedAfterServing checks the live-traffic side of the same
// invariant: served groups leave the map too, and a reused key gets a fresh
// incarnation that still serves correctly.
func TestGroupsDeletedAfterServing(t *testing.T) {
	loader, _ := testLoader(t)
	s := NewServer(loader, Options{MaxBatch: 64, MaxDelay: time.Millisecond})
	defer s.Close()

	for round := 0; round < 3; round++ {
		for shape := 0; shape < 4; shape++ {
			size := 8 + 4*shape
			in := tensor.RandNormal(tensor.NewRNG(uint64(round*10+shape)), 1, 3, size, size)
			if _, err := s.Submit(context.Background(), "m", in); err != nil {
				t.Fatalf("round %d shape %d: %v", round, shape, err)
			}
		}
		// Every submitted request has been answered, so every group was cut
		// and deleted — nothing waits for a timer here.
		if n := groupCount(s); n != 0 {
			t.Fatalf("round %d: %d groups linger after all responses", round, n)
		}
	}
}

// TestStaleTimerCannotFlushLaterIncarnation pins the generation guard: a
// MaxDelay timer armed for one incarnation of a key must be a no-op against a
// later incarnation, even though both lived under the same (model, H, W).
func TestStaleTimerCannotFlushLaterIncarnation(t *testing.T) {
	loader, _ := testLoader(t)
	s := NewServer(loader, Options{MaxBatch: 64, MaxDelay: time.Minute})
	defer s.Close()

	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "m", testInput(1))
		done <- err
	}()
	key := groupKey{model: "m", h: 16, w: 16}
	var gen uint64
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		var ok bool
		gen, ok = s.former.Gen(key)
		return ok
	})

	// A stale generation (as a timer from a previous incarnation would carry)
	// must not cut the batch.
	s.flushTimer(key, gen+1)
	if groupCount(s) != 1 {
		t.Fatal("stale-generation flush cut a live group")
	}
	select {
	case err := <-done:
		t.Fatalf("request served by stale flush (err=%v)", err)
	case <-time.After(10 * time.Millisecond):
	}

	// The matching generation flushes it.
	s.flushTimer(key, gen)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("matching-generation flush did not serve the request")
	}
	if groupCount(s) != 0 {
		t.Fatalf("%d groups after flush", groupCount(s))
	}
}

// TestLoadTracksSubmitCompleteExactly is the regression test for the
// in-flight accessor the routing tier reads on every pick: Load must move in
// lockstep with admissions and departures — +1 per admitted Submit, -1 per
// completion, failure or cancellation — never drifting from QueueDepth, and
// reading 0 at quiescence. Before Load existed the router had to scrape a
// full stats snapshot (mutex + map copy) per routing decision.
func TestLoadTracksSubmitCompleteExactly(t *testing.T) {
	loader, _ := testLoader(t)
	s := NewServer(loader, Options{MaxBatch: 64, MaxDelay: time.Minute, QueueCap: 64})

	if got := s.Load(); got != 0 {
		t.Fatalf("fresh server Load() = %d, want 0", got)
	}

	// Queue requests that cannot flush (size-64 batch, 1-minute delay): Load
	// must count each admission exactly once.
	const queued = 5
	var wg sync.WaitGroup
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), "m", testInput(uint64(i))); err != nil {
				t.Errorf("queued submit %d: %v", i, err)
			}
		}(i)
		waitFor(t, func() bool { return s.Load() == int64(i+1) })
		if got, want := s.Load(), int64(s.QueueDepth()); got != want {
			t.Fatalf("Load() = %d diverged from QueueDepth() = %d", got, want)
		}
	}

	// A canceled waiter decrements exactly once.
	ctx, cancel := context.WithCancel(context.Background())
	cancelDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, "m", testInput(99))
		cancelDone <- err
	}()
	waitFor(t, func() bool { return s.Load() == queued+1 })
	cancel()
	if err := <-cancelDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submit: err %v", err)
	}
	waitFor(t, func() bool { return s.Load() == queued })

	// Close flushes the queued batch; every completion decrements, back to 0.
	s.Close()
	wg.Wait()
	if got := s.Load(); got != 0 {
		t.Fatalf("Load() = %d after drain, want 0", got)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth() = %d after drain, want 0", got)
	}

	// Failure path: a failing loader must also decrement.
	boom := errors.New("disk on fire")
	sf := NewServer(func(string) (*infer.Plan, error) { return nil, boom }, Options{MaxDelay: time.Millisecond})
	defer sf.Close()
	if _, err := sf.Submit(context.Background(), "m", testInput(1)); !errors.Is(err, boom) {
		t.Fatalf("failing submit: err %v", err)
	}
	if got := sf.Load(); got != 0 {
		t.Fatalf("Load() = %d after failed request, want 0", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("condition never reached")
}
