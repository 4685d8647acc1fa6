// Package route is the cluster-scale routing tier over the single-node
// serving substrate in internal/serve: a Router spreads requests across a
// mutable fleet of Replicas (in-process serve.Servers or remote servd
// instances behind the HTTP adapter) through a pluggable Policy
// (round-robin, least-loaded, model-affinity), with token-bucket admission
// in front, SLO-class-aware dispatch ordering (fcfs / priority /
// shortest-job-first on predicted latency), and hedged retries that cancel
// the losing attempt.
//
// Every time-dependent behavior — bucket refill, hedge deadlines, latency
// measurement — runs off an injected Clock, so the whole tier is testable
// with a fake clock and fault-injecting fake replicas (routetest) instead
// of wall-clock sleeps.
package route

import (
	"context"
	"errors"
	"sync"
	"time"

	"drainnas/internal/metrics"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

// Typed router errors, mapped by front ends to transport codes the same way
// serve's sentinels are.
var (
	// ErrThrottled is returned when token-bucket admission rejects the
	// request (HTTP 429).
	ErrThrottled = errors.New("route: admission throttled")
	// ErrNoReplicas is returned when the replica set is empty or the policy
	// declines every replica (HTTP 503).
	ErrNoReplicas = errors.New("route: no replicas available")
	// ErrClosed is returned by Submit after Close (HTTP 503).
	ErrClosed = errors.New("route: router closed")
)

// Options configures a Router. The zero value routes round-robin with no
// admission limit, no dispatch bound, and no hedging.
type Options struct {
	// Policy picks the replica per request (default: round-robin).
	Policy Policy
	// Sched orders waiting requests when MaxInFlight bounds dispatch.
	Sched SchedMode
	// MaxInFlight bounds concurrently dispatched requests; excess waits at
	// the scheduling gate in Sched order. 0 = unlimited (Sched is then
	// irrelevant: nothing ever queues at the router).
	MaxInFlight int
	// HedgeAfter launches one hedge attempt on a different replica if the
	// primary has not answered within this duration. 0 disables hedging.
	HedgeAfter time.Duration
	// RetryOnError redispatches immediately to an untried replica when an
	// attempt fails with a retryable error (anything but not-found and the
	// caller's own cancellation). A request gets two attempts in all when
	// hedging or error retry is on, so a hedge and a retry share the one
	// extra attempt.
	RetryOnError bool
	// Rate and Burst configure token-bucket admission (tokens/second and
	// bucket capacity). Rate <= 0 disables admission control.
	Rate, Burst float64
	// EstimateSeedMS seeds the SJF latency estimator per model — typically
	// latmeter predictions computed from each model's compiled plan. A
	// measured EWMA overrides the seed as traffic flows.
	EstimateSeedMS map[string]float64
	// Clock drives bucket refill, hedge timers and latency measurement
	// (default SystemClock; tests inject a fake).
	Clock Clock
}

// Response is one routed request's result: the replica's response plus
// which replica won and whether the winning attempt was a hedge.
type Response struct {
	serve.Response
	// Replica is the ID of the replica that produced the response.
	Replica string
	// Hedged reports that the hedge attempt (not the primary) won.
	Hedged bool
}

// Router fans requests out over a mutable replica fleet. Construct with
// New; replicas can join (AddReplica) and drain (RemoveReplica) while
// traffic flows. Close drains in-flight requests; it does not close the
// replicas themselves, whose lifecycle belongs to their owner.
type Router struct {
	policy      Policy
	hedgeAfter  time.Duration
	maxAttempts int
	retryErr    bool
	clock       Clock
	stats       *metrics.RouterStats
	bucket      *TokenBucket
	g           *Gate
	est         *latencyEstimator

	mu       sync.RWMutex
	replicas []Replica
	closed   bool
	inflight sync.WaitGroup
}

// New builds a router over the given replicas.
func New(opts Options, replicas ...Replica) *Router {
	if opts.Policy == nil {
		opts.Policy = &RoundRobin{}
	}
	if opts.Clock == nil {
		opts.Clock = SystemClock
	}
	maxAttempts := 1
	if opts.HedgeAfter > 0 || opts.RetryOnError {
		maxAttempts = 2
	}
	var bucket *TokenBucket
	if opts.Rate > 0 {
		bucket = NewTokenBucket(opts.Rate, opts.Burst, opts.Clock)
	}
	return &Router{
		policy:      opts.Policy,
		hedgeAfter:  opts.HedgeAfter,
		maxAttempts: maxAttempts,
		retryErr:    opts.RetryOnError,
		clock:       opts.Clock,
		stats:       &metrics.RouterStats{},
		bucket:      bucket,
		g:           NewGate(opts.MaxInFlight, opts.Sched),
		est:         newLatencyEstimator(opts.EstimateSeedMS),
		replicas:    append([]Replica(nil), replicas...),
	}
}

// Stats returns the router's counter sink.
func (r *Router) Stats() *metrics.RouterStats { return r.stats }

// Policy returns the routing policy in use.
func (r *Router) Policy() Policy { return r.policy }

// Replicas returns a snapshot of the live replica set.
func (r *Router) Replicas() []Replica {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Replica(nil), r.replicas...)
}

// AddReplica joins rep to the fleet; it is eligible for the very next pick.
func (r *Router) AddReplica(rep Replica) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replicas = append(r.replicas, rep)
}

// RemoveReplica drains the replica with the given ID out of the rotation:
// no new attempts are routed to it, while attempts already in flight on it
// finish (or are hedged away) naturally. It reports whether a replica was
// removed.
func (r *Router) RemoveReplica(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, rep := range r.replicas {
		if rep.ID() == id {
			r.replicas = append(r.replicas[:i], r.replicas[i+1:]...)
			return true
		}
	}
	return false
}

// Waiting reports how many admitted requests are parked at the scheduling
// gate (0 when MaxInFlight is unlimited).
func (r *Router) Waiting() int { return r.g.Waiting() }

// Close stops admission and waits for in-flight requests to finish. It is
// idempotent and does not close the replicas.
func (r *Router) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.inflight.Wait()
}

// Submit routes one standard-class request; see SubmitClass.
func (r *Router) Submit(ctx context.Context, model string, input *tensor.Tensor) (Response, error) {
	return r.SubmitClass(ctx, ClassStandard, model, input)
}

// SubmitClass routes one request through admission, the scheduling gate,
// policy placement and (when configured) hedged retries, blocking until a
// replica answers or the request is rejected or canceled.
func (r *Router) SubmitClass(ctx context.Context, class SLOClass, model string, input *tensor.Tensor) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return Response{}, ErrClosed
	}
	r.inflight.Add(1)
	r.mu.RUnlock()
	defer r.inflight.Done()

	cls := class.String()
	r.stats.Submitted(cls)
	if !r.bucket.Allow() {
		r.stats.Throttled()
		return Response{}, ErrThrottled
	}

	enq := r.clock.Now()
	if err := r.g.Acquire(ctx, "", 1, class, r.est.estimateMS(model)); err != nil {
		r.stats.Failed(cls)
		return Response{}, err
	}
	defer r.g.Release()
	r.stats.QueueWait(cls, r.clock.Now().Sub(enq))

	resp, err := r.dispatch(ctx, model, input)
	total := r.clock.Now().Sub(enq)
	if err != nil {
		r.stats.Failed(cls)
		return Response{}, err
	}
	r.est.observeMS(model, float64(total)/float64(time.Millisecond))
	r.stats.Completed(cls, total)
	return resp, nil
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	resp  serve.Response
	err   error
	rep   Replica
	hedge bool
}

// dispatch runs the hedged attempt state machine: place the primary by
// policy, arm the hedge deadline, launch at most maxAttempts-1 extra
// attempts (a hedge when the deadline fires, an immediate retry when an
// attempt fails retryably), first success wins, and every losing attempt's
// context is canceled on return — the deferred cancels are what guarantee a
// hung straggler cannot leak a goroutine past its replica's cancellation
// handling.
func (r *Router) dispatch(ctx context.Context, model string, input *tensor.Tensor) (Response, error) {
	reps := r.Replicas()
	if len(reps) == 0 {
		r.stats.NoReplicas()
		return Response{}, ErrNoReplicas
	}
	t0 := r.clock.Now()
	primary := r.policy.Pick(model, reps)
	if primary < 0 || primary >= len(reps) {
		r.stats.NoReplicas()
		return Response{}, ErrNoReplicas
	}
	r.stats.Decision(r.policy.Name(), reps[primary].ID(), r.clock.Now().Sub(t0))

	results := make(chan attemptResult, r.maxAttempts)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	tried := make(map[string]bool, r.maxAttempts)
	launch := func(rep Replica, hedge bool) {
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		tried[rep.ID()] = true
		go func() {
			resp, err := rep.Submit(actx, model, input)
			results <- attemptResult{resp: resp, err: err, rep: rep, hedge: hedge}
		}()
	}

	// Arm the hedge deadline before the primary launches so a fake clock
	// deterministically sees the timer no later than the fake replica sees
	// the request.
	var hedgeC <-chan time.Time
	if r.hedgeAfter > 0 && r.maxAttempts > 1 && len(reps) > 1 {
		timer := r.clock.NewTimer(r.hedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C()
	}

	launch(reps[primary], false)
	outstanding := 1
	attempts := 1
	var firstErr error
	for {
		select {
		case out := <-results:
			outstanding--
			if out.err == nil {
				r.stats.AttemptDone(out.rep.ID(), true)
				if out.hedge {
					r.stats.HedgeWon(out.rep.ID())
				}
				if outstanding > 0 {
					// The deferred cancels cut the straggler(s) loose.
					r.stats.LosersCanceled(outstanding)
				}
				return Response{Response: out.resp, Replica: out.rep.ID(), Hedged: out.hedge}, nil
			}
			if ctx.Err() != nil {
				return Response{}, ctx.Err()
			}
			r.stats.AttemptDone(out.rep.ID(), false)
			if firstErr == nil {
				firstErr = out.err
			}
			if r.retryErr && retryable(out.err) && attempts < r.maxAttempts {
				if next := pickExcluding(r.policy, model, reps, tried); next != nil {
					attempts++
					outstanding++
					r.stats.Retried(next.ID())
					launch(next, false)
				}
			}
			if outstanding == 0 {
				return Response{}, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			if attempts < r.maxAttempts {
				if next := pickExcluding(r.policy, model, reps, tried); next != nil {
					attempts++
					outstanding++
					r.stats.HedgeLaunched(next.ID())
					launch(next, true)
				}
			}
		case <-ctx.Done():
			return Response{}, ctx.Err()
		}
	}
}

// pickExcluding applies the policy over the replicas not yet tried for this
// request, mapping the pick back to the original replica. It returns nil
// when every replica has been tried.
func pickExcluding(p Policy, model string, reps []Replica, tried map[string]bool) Replica {
	rest := make([]Replica, 0, len(reps))
	for _, rep := range reps {
		if !tried[rep.ID()] {
			rest = append(rest, rep)
		}
	}
	if len(rest) == 0 {
		return nil
	}
	i := p.Pick(model, rest)
	if i < 0 || i >= len(rest) {
		return nil
	}
	return rest[i]
}

// retryable reports whether a failed attempt is worth redispatching to a
// different replica: load and transient faults are, a missing model (the
// same on every replica of a uniform fleet) and the caller's own
// cancellation are not.
func retryable(err error) bool {
	switch {
	case errors.Is(err, serve.ErrModelNotFound),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	default:
		return true
	}
}
