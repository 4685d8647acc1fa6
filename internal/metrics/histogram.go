// Package metrics is the telemetry of the serving stack and the NAS sweep:
// latency histograms, and one stats sink per tier whose Snapshot is a section
// of /v1/stats and, through its prom tags, a set of /v1/metrics families.
package metrics

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a streaming latency histogram over fixed log-spaced buckets:
// 1µs to ~380s at √2 spacing plus an overflow bucket. Recording is lock-free
// — one binary search over 58 precomputed bounds and four atomic adds, never
// an allocation — so the serving hot path can afford an Observe per request
// phase. Snapshot derives count, sum, mean, exact max and interpolated
// p50/p90/p95/p99 from the bucket counts; the same buckets feed the
// Prometheus exposition writer (see prom.go).
//
// The zero value is ready to use; all methods are safe for concurrent use
// and no-ops on a nil receiver.
type Histogram struct {
	counts [histBuckets + 1]atomic.Uint64 // [histBuckets] = overflow
	sum    atomic.Int64
	max    atomic.Int64
	// minP1 stores the exact observed minimum plus one, so the zero value
	// means "nothing observed yet" and a genuine 0ns observation (clamped
	// clock skew) is still representable as 1.
	minP1 atomic.Int64
}

// histBuckets bounds the resolution: √2-spaced from 1µs, so two buckets per
// octave and a worst-case quantile quantization of ~41% before
// interpolation — plenty for "is p99 8ms or 80ms" on serving latencies.
const histBuckets = 58

// histOverflow marks the overflow bucket's upper bound in snapshots.
const histOverflow = time.Duration(math.MaxInt64)

var histBounds [histBuckets]time.Duration

func init() {
	histBounds[0] = time.Microsecond
	histBounds[1] = 1414 * time.Nanosecond // 1µs·√2, then exact doubling
	for i := 2; i < histBuckets; i++ {
		histBounds[i] = 2 * histBounds[i-2]
	}
}

// NewHistogram returns an empty histogram. The zero value is equally usable;
// the constructor exists for call sites that want a pointer in one step.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration. Negative durations (clock skew) clamp to 0.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := sort.Search(histBuckets, func(i int) bool { return d <= histBounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.minP1.Load()
		if (cur != 0 && int64(d)+1 >= cur) || h.minP1.CompareAndSwap(cur, int64(d)+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// HistogramBucket is one non-empty bucket of a snapshot: observations d with
// Lower < d ≤ Upper. The overflow bucket reports Upper == math.MaxInt64.
type HistogramBucket struct {
	Lower time.Duration `json:"lower_ns"`
	Upper time.Duration `json:"upper_ns"`
	Count uint64        `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram with the derived
// summaries a dashboard wants. Count is the sum of the bucket counts, so
// count and buckets are mutually consistent even under concurrent Observes
// (sum and max are read separately and may lag by an in-flight observation).
type HistogramSnapshot struct {
	Count uint64        `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`

	MeanMS float64 `json:"mean_ms"`
	MinMS  float64 `json:"min_ms"`
	MaxMS  float64 `json:"max_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`

	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot returns a consistent copy of the bucket counts with derived
// quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{
		Sum: time.Duration(h.sum.Load()),
		Max: time.Duration(h.max.Load()),
	}
	if mp1 := h.minP1.Load(); mp1 > 0 {
		snap.Min = time.Duration(mp1 - 1)
	}
	lower := time.Duration(0)
	for i := 0; i <= histBuckets; i++ {
		upper := histOverflow
		if i < histBuckets {
			upper = histBounds[i]
		}
		if c := h.counts[i].Load(); c > 0 {
			snap.Buckets = append(snap.Buckets, HistogramBucket{Lower: lower, Upper: upper, Count: c})
			snap.Count += c
		}
		lower = upper
	}
	if snap.Count > 0 {
		snap.MeanMS = ms(snap.Sum) / float64(snap.Count)
		snap.MinMS = ms(snap.Min)
		snap.MaxMS = ms(snap.Max)
		snap.P50MS = ms(snap.Quantile(0.50))
		snap.P90MS = ms(snap.Quantile(0.90))
		snap.P95MS = ms(snap.Quantile(0.95))
		snap.P99MS = ms(snap.Quantile(0.99))
	}
	return snap
}

// Quantile estimates the p-quantile (p in [0, 1]) by linear interpolation
// within the covering bucket, clamped to the exact observed [minimum,
// maximum]. Without the lower clamp, small p reported the covering bucket's
// lower bound — a latency below every observed sample (p=0 on a
// single-sample histogram invented a value that never happened), which
// skewed simulator calibration against measured histograms. Returns 0 for
// an empty snapshot.
func (s HistogramSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(s.Count)
	var cum uint64
	for _, b := range s.Buckets {
		if float64(cum+b.Count) >= rank {
			lo, hi := b.Lower, b.Upper
			if lo < s.Min {
				lo = s.Min
			}
			if hi > s.Max {
				hi = s.Max
			}
			if hi <= lo {
				return hi
			}
			frac := (rank - float64(cum)) / float64(b.Count)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += b.Count
	}
	return s.Max
}
