package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drainnas/internal/tensor"
)

// op is one predict request: which chip of the pool, asked for as which
// variant (model × precision × tenant).
type op struct{ chip, variant int }

// target is whatever answers predict requests — the real router over a
// socket, or the in-process mirror of the same layers in a traced run.
// send returns once the last byte of the answer has been read; check then
// decides, off the clock, whether the answer was right.
type target interface {
	send(ctx context.Context, sender int, o op) (status int, body []byte, err error)
	check(o op, status int, body []byte) error
}

// sample records one sent request as offsets from the phase start. In a
// closed loop due == start.
type sample struct {
	due, start, end time.Duration
	err             error
}

// errNotSent marks a scheduled request the phase was cancelled before.
var errNotSent = errors.New("bench: request was never sent")

// arrivals schedules n requests over [0, phase): one per slot of phase/n,
// displaced from the slot's middle by a seeded jitter of up to a quarter
// slot either way. The schedule is fixed before the first request is sent
// and never waits for an answer. It is paced rather than Poisson on
// purpose: predict_steady measures the path with nothing queued, and at
// one request per 100 ms against ~50 ms of service a Poisson schedule has
// four requests in ten arrive while another is in flight — on the 2-core
// sizing box the median then followed the seed's clumping, not the code
// (README, "Sizing").
func arrivals(rng *tensor.RNG, n int, phase time.Duration) []time.Duration {
	slot := float64(phase) / float64(n)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(slot * (float64(i) + 0.5 + rng.Uniform(-0.25, 0.25)))
	}
	return due
}

// openLoop sends ops[i] at due[i] regardless of how the earlier ones fare.
// A pool of senders shares the schedule: each takes the next unsent
// request, sleeps until it is due and sends it. A request is timed from
// the instant it was due, so the wait a stalled system (or an exhausted
// sender pool) imposes on later requests is counted against it, and
// start-due says how late the generator itself ran.
func openLoop(ctx context.Context, t target, senders int, due []time.Duration, ops []op) []sample {
	samples := make([]sample, len(due))
	for i := range samples {
		samples[i] = sample{due: due[i], start: due[i], end: due[i], err: errNotSent}
	}
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				if wait := due[i] - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				start := time.Since(t0)
				status, body, err := t.send(ctx, s, ops[i])
				end := time.Since(t0)
				if err == nil {
					err = t.check(ops[i], status, body)
				}
				samples[i] = sample{due: due[i], start: start, end: end, err: err}
			}
		}(s)
	}
	wg.Wait()
	return samples
}

// closedLoop runs `clients` callers that each wait for a reply before
// sending their next request, for the length of the phase. pick draws each
// client's next op from that client's own seeded stream.
func closedLoop(ctx context.Context, t target, clients int, phase time.Duration, seed uint64, pick func(*tensor.RNG) op) []sample {
	perClient := make([][]sample, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := tensor.NewRNG(seed + uint64(c)*0x9E3779B97F4A7C15)
			for ctx.Err() == nil {
				start := time.Since(t0)
				if start >= phase {
					return
				}
				o := pick(rng)
				status, body, err := t.send(ctx, c, o)
				end := time.Since(t0)
				if err == nil {
					err = t.check(o, status, body)
				}
				perClient[c] = append(perClient[c], sample{due: start, start: start, end: end, err: err})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// sloLimit is the interactive latency limit of predict_steady: a request
// meets it when its correct answer is complete within this long of its due
// time. A failed request misses.
const sloLimit = 100 * time.Millisecond

// loadSummary is the arithmetic over one phase's samples.
type loadSummary struct {
	sent, ok, failed int
	withinSLO        int
	latencyMS        []float64       // due → last byte, every sent request
	latenessMS       []float64       // due → actually sent
	ends             []time.Duration // completion offset of every sent request
	okEnds           []time.Duration // completion offsets of correct answers
	lastEnd          time.Duration
	firstErr         error
}

func summarize(samples []sample) loadSummary {
	s := loadSummary{sent: len(samples)}
	for _, x := range samples {
		s.latencyMS = append(s.latencyMS, ms(x.end-x.due))
		s.latenessMS = append(s.latenessMS, ms(x.start-x.due))
		s.ends = append(s.ends, x.end)
		if x.end > s.lastEnd {
			s.lastEnd = x.end
		}
		if x.err != nil {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = x.err
			}
			continue
		}
		s.ok++
		s.okEnds = append(s.okEnds, x.end)
		if x.end-x.due <= sloLimit {
			s.withinSLO++
		}
	}
	return s
}

// Guard rails: a run that breaks one reports no number at all.
const (
	// maxLateness voids a run in which the generator, not the system,
	// delayed the requests: half of them left this long after they were
	// due. (The p95 is reported as loadgen.lateness_p95_ms but not
	// guarded: on a 2-core box one servd convolution burst holds the
	// generator's wake-up back by tens of milliseconds now and then, and
	// that wait is charged to the request's latency anyway.)
	maxLateness = 20 * time.Millisecond
	// minSampleShare voids a predict phase that produced fewer samples
	// than this share of steadyRate × phase length.
	minSampleShare = 0.75
)

func (s loadSummary) guard(phase time.Duration) error {
	if late := median(s.latenessMS); late > ms(maxLateness) {
		return fmt.Errorf("void run: the load generator ran late (median lateness %.1f ms > %v)", late, maxLateness)
	}
	if min := int(minSampleShare * steadyRate * phase.Seconds()); s.sent < min {
		return fmt.Errorf("void run: %d samples in the phase, need at least %d", s.sent, min)
	}
	return nil
}
