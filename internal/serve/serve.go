// Package serve is the deployment-side serving substrate: a dynamic
// micro-batching inference server core over the standalone runtime in
// internal/infer. It is the step from the paper's single-image
// edge-deployment story toward the ROADMAP north star of serving heavy
// request traffic: incoming requests are collected into batches (flushed
// when a batch fills or a deadline expires), executed at most Workers at a
// time through Plan.RunBatch so conv/matmul overhead amortizes, and
// admission-controlled by a bounded queue with typed backpressure errors.
//
// The pieces:
//
//   - Server.Submit enqueues one request and blocks until its response,
//     a typed rejection (ErrQueueFull, ErrClosed) or context cancellation.
//   - Requests are grouped by (model, H, W) so each flush stacks into one
//     forward pass. A group is cut at once while an execution slot is idle,
//     unless one of its requests said more of the group is on the way
//     (ExpectMore); then it waits for MaxBatch, and a per-group timer bounds
//     the wait by MaxDelay.
//   - A ModelCache (LRU, deduplicated loads) of compiled plans lets one
//     instance serve several Pareto-front models within a bounded
//     weight-memory budget.
//   - Counters (queue depth, batch shape, latency) land in
//     metrics.ServingStats.
//
// Exactly-once execution: each request is claimed either by the batch
// executor or by its canceling waiter via an atomic compare-and-swap, so a
// request is never lost and never runs twice.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"sync/atomic"
	"time"

	"drainnas/internal/infer"
	"drainnas/internal/metrics"
	"drainnas/internal/parallel"
	"drainnas/internal/sched"
	"drainnas/internal/tensor"
)

// Typed admission and lookup errors, so front ends can map them to
// transport-level codes (HTTP 429 / 503 / 404) without string matching.
var (
	ErrQueueFull = errors.New("serve: queue full")
	ErrClosed    = errors.New("serve: server closed")
	// ErrModelNotFound marks a loader failure that means the model does not
	// exist (as opposed to a transient load error worth retrying): loaders
	// should return an error wrapping fs.ErrNotExist or ErrModelNotFound
	// itself. Front ends map it to 404 where transient failures stay 5xx.
	ErrModelNotFound = errors.New("serve: model not found")
)

// Options configures a Server. The zero value gets sensible defaults.
type Options struct {
	// MaxBatch flushes a group as soon as it holds this many requests
	// (default 8).
	MaxBatch int
	// MaxDelay is the longest a request waits for company: a group whose
	// requests said more is coming (ExpectMore), or that formed while every
	// execution slot was busy, is cut this long after its first request
	// arrived if nothing cut it sooner (default 2ms). A lone request on an
	// idle server does not wait for it.
	MaxDelay time.Duration
	// QueueCap bounds the number of admitted-but-unfinished requests;
	// Submit returns ErrQueueFull beyond it (default 256).
	QueueCap int
	// Workers bounds the batches executing at once; a batch cut while every
	// slot is busy parks until one frees, in cut order (default
	// parallel.DefaultWorkers).
	Workers int
	// CacheCap bounds the number of resident model runtimes (default 4).
	CacheCap int
	// Stats receives request/batch counters; a fresh ServingStats is
	// created when nil.
	Stats *metrics.ServingStats
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Millisecond
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.Workers <= 0 {
		o.Workers = parallel.DefaultWorkers
	}
	if o.CacheCap <= 0 {
		o.CacheCap = 4
	}
	if o.Stats == nil {
		o.Stats = &metrics.ServingStats{}
	}
	return o
}

// Response is one served request's result.
type Response struct {
	// Model is the cache key the request ran under.
	Model string
	// Class is the predicted class, Logits the raw scores.
	Class  int
	Logits []float32
	// BatchSize is the number of requests in the executed batch this
	// request rode in — the amortization the batcher achieved.
	BatchSize int
	// Queued is the time spent waiting for the batch to start; Total the
	// full admission-to-response latency.
	Queued time.Duration
	Total  time.Duration
}

// Request lifecycle states; transitions are CAS-guarded so exactly one
// party (executor or canceling waiter) claims each request.
const (
	stateQueued int32 = iota
	stateCanceled
	stateClaimed
)

type pending struct {
	input    *tensor.Tensor
	state    atomic.Int32
	enqueued time.Time
	done     chan result // buffered: executor never blocks on delivery
}

type result struct {
	resp Response
	err  error
}

// groupKey identifies one batchable stream: same model, same spatial size.
type groupKey struct {
	model string
	h, w  int
}

// expectMoreKey is the context key ExpectMore sets.
type expectMoreKey struct{}

// ExpectMore marks ctx to say that more requests for the same model and
// chip size are on their way: a request submitted under it holds its group,
// which then waits for MaxBatch or MaxDelay instead of being cut at once on
// an idle execution slot. A scan sets it on every tile after its first. The
// mark stays in process; nothing sends it over the wire.
func ExpectMore(ctx context.Context) context.Context {
	return context.WithValue(ctx, expectMoreKey{}, true)
}

// ExpectsMore reports whether ctx carries ExpectMore's mark.
func ExpectsMore(ctx context.Context) bool {
	more, _ := ctx.Value(expectMoreKey{}).(bool)
	return more
}

// Server is the batching inference server. Construct with NewServer,
// release with Close.
type Server struct {
	opts  Options
	cache *ModelCache

	mu     sync.Mutex
	former *sched.Former[groupKey, *pending] // what to cut and when; guarded by mu
	// slots holds the Workers execution slots; a parked waiter's Value is
	// the batch that runs once a slot is handed to it. Guarded by mu.
	slots  *sched.Gate[func()]
	closed bool

	// load counts admitted-but-unfinished requests: +1 on admission (only
	// under mu, so the QueueCap check against it holds), -1 when the request
	// leaves (completed, failed or canceled). It is atomic so routing tiers
	// can read a replica's in-flight count on every pick without contending
	// on mu or allocating a stats snapshot.
	load atomic.Int64

	// dispatchers counts the goroutines executing batches, so Close can
	// wait for every admitted request to finish.
	dispatchers sync.WaitGroup
}

// NewServer builds a server whose models come from loader (keyed by the
// Request model string; the empty key is legal if the loader accepts it).
// The loader returns compiled plans — immutable and shared across every
// batch that runs the model.
func NewServer(loader func(key string) (*infer.Plan, error), opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		opts:   opts,
		cache:  NewModelCache(opts.CacheCap, loader),
		former: sched.NewFormer[groupKey, *pending](opts.MaxBatch),
		slots:  sched.NewGate[func()](opts.Workers, sched.FCFS),
	}
}

// Stats returns the server's counter sink.
func (s *Server) Stats() *metrics.ServingStats { return s.opts.Stats }

// Cache returns the model cache (for stats endpoints).
func (s *Server) Cache() *ModelCache { return s.cache }

// Submit enqueues one single-image request — input is (C, H, W) or
// (1, C, H, W) — and blocks until it is served, rejected or canceled.
// Requests for the same model and spatial size are batched together.
func (s *Server) Submit(ctx context.Context, model string, input *tensor.Tensor) (Response, error) {
	if input == nil {
		return Response{}, fmt.Errorf("serve: nil input")
	}
	if err := ctx.Err(); err != nil {
		// An already-expired context never enters the queue: admitting it
		// would only burn batch capacity on a result nobody is waiting for.
		return Response{}, err
	}
	var h, w int
	switch input.NDim() {
	case 3:
		h, w = input.Dim(1), input.Dim(2)
	case 4:
		if input.Dim(0) != 1 {
			return Response{}, fmt.Errorf("serve: input batch dim %d, want 1", input.Dim(0))
		}
		h, w = input.Dim(2), input.Dim(3)
	default:
		return Response{}, fmt.Errorf("serve: input must be (C,H,W) or (1,C,H,W), got %v", input.Shape())
	}
	key := groupKey{model: model, h: h, w: w}
	p := &pending{
		input:    input,
		enqueued: time.Now(),
		done:     make(chan result, 1),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Response{}, ErrClosed
	}
	if s.load.Load() >= int64(s.opts.QueueCap) {
		s.mu.Unlock()
		s.opts.Stats.Rejected(model)
		return Response{}, ErrQueueFull
	}
	s.load.Add(1)
	s.opts.Stats.Enqueued(model)
	cut, gen, fresh := s.former.Add(key, p, ExpectsMore(ctx))
	if cut != nil {
		s.dispatch(key, cut)
	}
	// Work conservation: while a slot is free, no group that nobody holds
	// waits for company.
	for s.slots.Free() {
		k, batch := s.former.CutIdle()
		if batch == nil {
			break
		}
		s.dispatch(k, batch)
	}
	if fresh {
		// Exactly one MaxDelay timer per group incarnation that was not cut
		// at once (the group is gone once its batch is cut, so a later
		// request starts a new incarnation + timer).
		if live, ok := s.former.Gen(key); ok && live == gen {
			time.AfterFunc(s.opts.MaxDelay, func() { s.flushTimer(key, gen) })
		}
	}
	s.mu.Unlock()

	select {
	case r := <-p.done:
		return r.resp, r.err
	case <-ctx.Done():
		if p.state.CompareAndSwap(stateQueued, stateCanceled) {
			// We won the claim: the executor will skip this request.
			s.opts.Stats.Canceled(model)
			s.load.Add(-1)
		}
		return Response{}, ctx.Err()
	}
}

// flushTimer is the MaxDelay deadline for a group generation.
func (s *Server) flushTimer(key groupKey, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A nil batch was already flushed (by size or Close), or the group is a
	// later incarnation.
	if batch := s.former.Expire(key, gen); batch != nil {
		s.dispatch(key, batch)
	}
}

// dispatch starts a cut batch on a new goroutine when an execution slot is
// free, and parks it at the slot gate otherwise. The caller holds s.mu and
// never executes the batch itself.
func (s *Server) dispatch(key groupKey, batch []*pending) {
	task := func() { s.execute(key, batch) }
	w, granted := s.slots.Acquire("", 1, sched.ClassStandard, 0)
	if !granted {
		w.Value = task
		return
	}
	s.dispatchers.Add(1)
	go s.run(task)
}

// run executes task in its slot, then executes on the same goroutine what
// the slot passes to next, until the slot is left free.
func (s *Server) run(task func()) {
	defer s.dispatchers.Done()
	for task != nil {
		task()
		s.mu.Lock()
		task = s.next()
		s.mu.Unlock()
	}
}

// next releases a finished batch's slot and returns what runs in it next:
// the oldest parked batch or, with nothing parked, the oldest group no
// request holds, cut now. It returns nil when there is neither, and the
// slot stays free. The caller holds s.mu.
func (s *Server) next() func() {
	if w := s.slots.Release(); w != nil {
		return w.Value
	}
	key, batch := s.former.CutIdle()
	if batch == nil {
		return nil
	}
	s.slots.Acquire("", 1, sched.ClassStandard, 0) // granted: the slot just freed and nothing is parked
	return func() { s.execute(key, batch) }
}

// execute claims the batch's live requests, runs them as one stacked
// forward pass, and delivers per-request results.
func (s *Server) execute(key groupKey, batch []*pending) {
	claimed := batch[:0:0]
	for _, p := range batch {
		if p.state.CompareAndSwap(stateQueued, stateClaimed) {
			claimed = append(claimed, p)
		}
	}
	if len(claimed) == 0 {
		return
	}

	plan, err := s.cache.Get(key.model)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) && !errors.Is(err, ErrModelNotFound) {
			// Normalize filesystem-level absence to the typed sentinel so
			// front ends need only one check.
			err = errors.Join(ErrModelNotFound, err)
		}
		s.fail(key.model, claimed, fmt.Errorf("serve: model %q: %w", key.model, err))
		return
	}

	inputs := make([]*tensor.Tensor, len(claimed))
	for i, p := range claimed {
		inputs[i] = p.input
	}
	start := time.Now()
	preds, err := plan.RunBatch(inputs)
	exec := time.Since(start)
	if err != nil {
		s.fail(key.model, claimed, err)
		return
	}
	s.opts.Stats.BatchDone(key.model, len(claimed), exec)

	s.load.Add(-int64(len(claimed)))
	for i, p := range claimed {
		resp := Response{
			Model:     key.model,
			Class:     preds[i].Class,
			Logits:    preds[i].Logits,
			BatchSize: len(claimed),
			Queued:    start.Sub(p.enqueued),
			Total:     time.Since(p.enqueued),
		}
		s.opts.Stats.Completed(key.model, resp.Queued, resp.Total)
		p.done <- result{resp: resp}
	}
}

func (s *Server) fail(model string, claimed []*pending, err error) {
	s.load.Add(-int64(len(claimed)))
	for _, p := range claimed {
		s.opts.Stats.Failed(model)
		p.done <- result{err: err}
	}
}

// Load is the number of admitted-but-unfinished requests, readable on every
// routing decision without taking the server mutex. It is incremented
// exactly once per admitted Submit and decremented exactly once when the
// request completes, fails, or is canceled, so at quiescence it always
// reads 0.
func (s *Server) Load() int64 { return s.load.Load() }

// Close flushes every pending batch and waits for in-flight work. Requests
// admitted before Close still complete; Submit afterwards returns
// ErrClosed. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for key, batch := range s.former.Drain() {
			s.dispatch(key, batch)
		}
	}
	s.mu.Unlock()
	s.dispatchers.Wait()
}
