package nas

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"drainnas/internal/resnet"
)

// ErrTransient marks a trial failure as retriable: an evaluator wraps it
// (fmt.Errorf("...: %w", nas.ErrTransient)) when the failure is an
// environmental flake — an OOM-killed worker, a lost connection — rather
// than a property of the configuration. RetryEvaluator retries only
// transient failures; an invalid architecture fails the same way every time
// and retrying it just burns budget.
var ErrTransient = errors.New("transient trial failure")

// IsTransient reports whether err is marked transient.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Retry backoff: the first retry waits retryBaseDelay, each later one twice
// the last, capped at retryMaxDelay.
const (
	retryBaseDelay = 100 * time.Millisecond
	retryMaxDelay  = 5 * time.Second
)

// RetryEvaluator wraps an Evaluator with bounded retry and exponential
// backoff, absorbing the transient failures an hours-long sweep will
// inevitably hit so they don't land in the journal as failed trials. Only
// IsTransient errors are retried. The struct is safe for the concurrent
// use an experiment gives it as long as Inner is.
type RetryEvaluator struct {
	Inner Evaluator
	// MaxAttempts is the total number of tries per trial (first attempt
	// included); values < 2 mean a single attempt, i.e. no retry.
	MaxAttempts int
	// OnRetry, when non-nil, observes each retry before its backoff sleep —
	// the hook a sweep uses to count retries in metrics. It is called from
	// worker goroutines and must be safe for concurrent use.
	OnRetry func(attempt int, err error)
	// Sleep replaces time.Sleep in tests; nil selects time.Sleep.
	Sleep func(time.Duration)
}

// Evaluate tries Inner up to MaxAttempts times, backing off exponentially
// between attempts, and returns the last error when every attempt fails.
func (e RetryEvaluator) Evaluate(cfg resnet.Config) (float64, error) {
	attempts := e.MaxAttempts
	if attempts < 2 {
		return e.Inner.Evaluate(cfg)
	}
	sleep := e.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var lastErr error
	delay := retryBaseDelay
	for attempt := 1; attempt <= attempts; attempt++ {
		acc, err := e.Inner.Evaluate(cfg)
		if err == nil {
			return acc, nil
		}
		lastErr = err
		if attempt == attempts || !IsTransient(err) {
			break
		}
		if e.OnRetry != nil {
			e.OnRetry(attempt, err)
		}
		sleep(delay)
		delay *= 2
		if delay > retryMaxDelay {
			delay = retryMaxDelay
		}
	}
	return 0, lastErr
}

// FlakyEvaluator injects deterministic transient faults into an inner
// evaluator: each distinct configuration fails its first FailFirst
// attempts, then succeeds. It is the test double for retry, crash and
// resume paths — with FailFirst below the retry budget a sweep's final
// results must be identical to a fault-free run. Safe for concurrent use.
type FlakyEvaluator struct {
	Inner Evaluator
	// FailFirst is how many leading attempts per configuration fail with a
	// transient error.
	FailFirst int
	// Delay stretches every attempt, giving cancellation tests a window in
	// which a sweep is reliably mid-flight.
	Delay time.Duration

	mu       sync.Mutex
	attempts map[resnet.Config]int
}

// Evaluate fails the configuration's first FailFirst attempts, then
// delegates to Inner.
func (e *FlakyEvaluator) Evaluate(cfg resnet.Config) (float64, error) {
	if e.Delay > 0 {
		time.Sleep(e.Delay)
	}
	e.mu.Lock()
	if e.attempts == nil {
		e.attempts = make(map[resnet.Config]int)
	}
	e.attempts[cfg]++
	n := e.attempts[cfg]
	e.mu.Unlock()
	if n <= e.FailFirst {
		return 0, fmt.Errorf("injected fault (attempt %d of %s): %w", n, cfg.Key(), ErrTransient)
	}
	return e.Inner.Evaluate(cfg)
}

// Attempts returns how many times cfg has been evaluated so far.
func (e *FlakyEvaluator) Attempts(cfg resnet.Config) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.attempts[cfg]
}
