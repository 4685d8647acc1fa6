package route

import (
	"sync"

	"drainnas/internal/sched"
)

// TokenBucket is the admission controller in front of the fleet: the shared
// sched.Bucket behind a mutex, read off the injected clock so refill
// behavior is testable without wall-clock sleeps. A request arriving to an
// empty bucket is rejected immediately (ErrThrottled from the router)
// instead of queueing.
type TokenBucket struct {
	mu    sync.Mutex
	b     sched.Bucket
	clock Clock
}

// NewTokenBucket builds a bucket refilling at rate tokens/second with the
// given burst capacity (values < 1 are raised to 1 so a conforming request
// can ever pass). rate <= 0 returns a bucket that admits everything.
func NewTokenBucket(rate, burst float64, clock Clock) *TokenBucket {
	if clock == nil {
		clock = SystemClock
	}
	return &TokenBucket{b: sched.NewBucket(rate, burst, clock.Now().UnixNano()), clock: clock}
}

// Allow spends one token if available. A nil bucket always admits.
func (tb *TokenBucket) Allow() bool {
	if tb == nil {
		return true
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.b.Allow(tb.clock.Now().UnixNano())
}
