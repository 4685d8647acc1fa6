// Package serve is the deployment-side serving substrate: a dynamic
// micro-batching inference server core over the standalone runtime in
// internal/infer. It is the step from the paper's single-image
// edge-deployment story toward the ROADMAP north star of serving heavy
// request traffic: incoming requests are collected into batches (flushed
// when a batch fills or a deadline expires), executed by a bounded worker
// pool through Plan.RunBatch so conv/matmul overhead amortizes, and
// admission-controlled by a bounded queue with typed backpressure errors.
//
// The pieces:
//
//   - Server.Submit enqueues one request and blocks until its response,
//     a typed rejection (ErrQueueFull, ErrClosed) or context cancellation.
//   - Requests are grouped by (model, H, W) so each flush stacks into one
//     forward pass; a per-group timer bounds added latency by MaxDelay.
//   - A ModelCache (LRU, deduplicated loads) of compiled plans lets one
//     instance serve several Pareto-front models within a bounded
//     weight-memory budget.
//   - Counters (queue depth, batch shape, latency) land in
//     metrics.ServingStats; per-batch phases can be recorded into a
//     profiler.Profiler.
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
	"drainnas/internal/profiler"
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
	// MaxDelay flushes a non-empty group this long after its first request
	// arrived, bounding the latency cost of batching (default 2ms).
	MaxDelay time.Duration
	// QueueCap bounds the number of admitted-but-unfinished requests;
	// Submit returns ErrQueueFull beyond it (default 256).
	QueueCap int
	// Workers sizes the execution pool (default parallel.DefaultWorkers).
	Workers int
	// CacheCap bounds the number of resident model runtimes (default 4).
	CacheCap int
	// Stats receives request/batch counters; a fresh ServingStats is
	// created when nil.
	Stats *metrics.ServingStats
	// Profiler, when non-nil, records per-batch model-load and forward
	// phases.
	Profiler *profiler.Profiler
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

// Server is the batching inference server. Construct with NewServer,
// release with Close.
type Server struct {
	opts  Options
	cache *ModelCache
	pool  *parallel.Pool

	mu     sync.Mutex
	former *sched.Former[groupKey, *pending] // what to cut and when; guarded by mu
	depth  int                               // admitted-but-unfinished requests
	closed bool

	// load mirrors depth as a lock-free counter so routing tiers can read a
	// replica's in-flight count on every pick without contending on mu or
	// allocating a stats snapshot. It moves in lockstep with depth: +1 on
	// admission, -1 when the request leaves (completed, failed or canceled).
	load atomic.Int64

	// dispatchers tracks flushes between taking a batch and handing it to
	// the pool, so Close can drain them before closing the pool.
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
		pool:   parallel.NewPool(opts.Workers),
		former: sched.NewFormer[groupKey, *pending](opts.MaxBatch),
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
	if s.depth >= s.opts.QueueCap {
		s.mu.Unlock()
		s.opts.Stats.Rejected(model)
		return Response{}, ErrQueueFull
	}
	s.depth++
	s.load.Add(1)
	s.opts.Stats.Enqueued(model)
	cut, gen, fresh := s.former.Add(key, p)
	if fresh {
		// Exactly one MaxDelay timer per group incarnation (the group is
		// gone once its batch is cut, so a later request starts a new
		// incarnation + timer).
		time.AfterFunc(s.opts.MaxDelay, func() { s.flushTimer(key, gen) })
	}
	if cut != nil {
		s.dispatchers.Add(1)
	}
	s.mu.Unlock()

	if cut != nil {
		s.dispatch(key, cut)
	}

	select {
	case r := <-p.done:
		return r.resp, r.err
	case <-ctx.Done():
		if p.state.CompareAndSwap(stateQueued, stateCanceled) {
			// We won the claim: the executor will skip this request.
			s.opts.Stats.Canceled(model)
			s.mu.Lock()
			s.depth--
			s.mu.Unlock()
			s.load.Add(-1)
		}
		return Response{}, ctx.Err()
	}
}

// flushTimer is the MaxDelay deadline for a group generation.
func (s *Server) flushTimer(key groupKey, gen uint64) {
	s.mu.Lock()
	batch := s.former.Expire(key, gen)
	if batch == nil {
		// Already flushed (by size or Close), or a later incarnation.
		s.mu.Unlock()
		return
	}
	s.dispatchers.Add(1)
	s.mu.Unlock()
	s.dispatch(key, batch)
}

// dispatch hands a cut batch to the worker pool, executing inline when the
// pool's queue is saturated — the flushing goroutine then becomes the
// worker, which is exactly the backpressure we want instead of unbounded
// goroutine growth.
func (s *Server) dispatch(key groupKey, batch []*pending) {
	defer s.dispatchers.Done()
	task := func() { s.execute(key, batch) }
	if !s.pool.TrySubmit(task) {
		task()
	}
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

	var stopLoad func()
	if s.opts.Profiler != nil {
		stopLoad = s.opts.Profiler.Start("serve/load")
	}
	plan, err := s.cache.Get(key.model)
	if stopLoad != nil {
		stopLoad()
	}
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
	var stopFwd func()
	if s.opts.Profiler != nil {
		stopFwd = s.opts.Profiler.Start("serve/forward")
	}
	start := time.Now()
	preds, err := plan.RunBatch(inputs)
	exec := time.Since(start)
	if stopFwd != nil {
		stopFwd()
	}
	if err != nil {
		s.fail(key.model, claimed, err)
		return
	}
	s.opts.Stats.BatchDone(key.model, len(claimed), exec)

	s.mu.Lock()
	s.depth -= len(claimed)
	s.mu.Unlock()
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
	s.mu.Lock()
	s.depth -= len(claimed)
	s.mu.Unlock()
	s.load.Add(-int64(len(claimed)))
	for _, p := range claimed {
		s.opts.Stats.Failed(model)
		p.done <- result{err: err}
	}
}

// QueueDepth returns the number of admitted-but-unfinished requests.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth
}

// Load is the lock-free equivalent of QueueDepth: the number of
// admitted-but-unfinished requests, readable on every routing decision
// without taking the server mutex. It is incremented exactly once per
// admitted Submit and decremented exactly once when the request completes,
// fails, or is canceled, so at quiescence it always reads 0.
func (s *Server) Load() int64 { return s.load.Load() }

// Close flushes every pending batch, waits for in-flight work, and shuts
// the worker pool down. Requests admitted before Close still complete;
// Submit afterwards returns ErrClosed. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.dispatchers.Wait()
		s.pool.Close()
		return
	}
	s.closed = true
	cuts := s.former.Drain()
	s.dispatchers.Add(len(cuts))
	s.mu.Unlock()
	for key, batch := range cuts {
		s.dispatch(key, batch)
	}
	s.dispatchers.Wait()
	s.pool.Close()
}
