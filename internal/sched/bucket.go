package sched

// Bucket is token-bucket admission: requests spend one token each, tokens
// refill at rate per second up to burst, and a request arriving to an empty
// bucket is refused at once instead of queueing — shedding overload before
// it can occupy dispatch slots or replica queues. Instants are nanoseconds
// on whatever timeline the caller keeps (wall clock, fake clock, simulated
// time); only differences matter.
type Bucket struct {
	rate   float64 // tokens per second; <= 0 disables limiting
	burst  float64
	tokens float64
	last   int64 // instant of the last refill
}

// NewBucket builds a full bucket refilling at rate tokens/second from
// instant now, with the given burst capacity (values < 1 are raised to 1 so
// a conforming request can ever pass). rate <= 0 admits everything.
func NewBucket(rate, burst float64, now int64) Bucket {
	if burst < 1 {
		burst = 1
	}
	return Bucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// Allow spends one token at instant now if one is available.
func (b *Bucket) Allow(now int64) bool {
	if b.rate <= 0 {
		return true
	}
	if now > b.last {
		// last only ever advances. Setting it unconditionally would let a
		// clock regression (a rewound fake clock, a non-monotonic wall
		// source) drag last backward, and the next forward reading would
		// re-credit the interval as refill a second time.
		b.tokens += b.rate * float64(now-b.last) / 1e9
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
