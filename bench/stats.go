package main

import (
	"math"
	"sort"
	"time"

	"drainnas/internal/metrics"
)

// percentile returns the p-quantile (p in [0,1]) of xs by linear
// interpolation between closest ranks; 0 for an empty slice. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// A measured phase yields the same measurement many times over — one per
// window of the phase, per scan job, per training pass, per sweep. What a
// run reports is the quartile of those on the quiet side: the upper
// quartile of rates, the lower quartile of times. The sizing box is shared,
// and a neighbour's burst only ever makes a window slower, never faster, so
// the quiet-side quartile moves with the code and much less with the
// neighbour than the median does; it is a quartile and not the best window
// so that one lucky window cannot set the number. (README, "Sizing", has the
// spreads of both on recorded samples.)
type direction int

const (
	lowerIsBetter direction = iota
	higherIsBetter
)

func quiet(xs []float64, d direction) float64 {
	if d == higherIsBetter {
		return percentile(xs, 0.75)
	}
	return percentile(xs, 0.25)
}

// predictWindow is the length of one window of a predict phase.
const predictWindow = time.Second

// windowRates cuts [0, phase) into consecutive windows and returns the
// events per second in each whole window. Events at or beyond the last
// whole window are ignored.
func windowRates(events []time.Duration, phase, window time.Duration) []float64 {
	rates := make([]float64, int(phase/window))
	for _, e := range events {
		if i := int(e / window); e >= 0 && i < len(rates) {
			rates[i] += 1 / window.Seconds()
		}
	}
	return rates
}

// windowMedians groups values by the window their time falls in and returns
// the median of each window that holds at least three.
func windowMedians(at []time.Duration, values []float64, window time.Duration) []float64 {
	groups := map[int][]float64{}
	for i, t := range at {
		groups[int(t/window)] = append(groups[int(t/window)], values[i])
	}
	var meds []float64
	for _, g := range groups {
		if len(g) >= 3 {
			meds = append(meds, median(g))
		}
	}
	return meds
}

// interval is a half-open time range on the trace clock.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it that its children
// cover: children are clipped to the parent, overlapping children are
// counted once.
func selfTime(parent interval, children []interval) time.Duration {
	total := parent.end - parent.start
	if total <= 0 {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered time.Duration
	cursor := parent.start
	for _, c := range clipped {
		if c.start > cursor {
			cursor = c.start
		}
		if c.end > cursor {
			covered += c.end - cursor
			cursor = c.end
		}
	}
	return total - covered
}

// histDelta subtracts an earlier snapshot of a cumulative server-side
// histogram from a later one, leaving only the observations made between
// the two scrapes.
func histDelta(before, after metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	old := make(map[time.Duration]uint64, len(before.Buckets))
	for _, b := range before.Buckets {
		old[b.Upper] = b.Count
	}
	d := metrics.HistogramSnapshot{Sum: after.Sum - before.Sum}
	for _, b := range after.Buckets {
		if n := b.Count - old[b.Upper]; n > 0 {
			d.Buckets = append(d.Buckets, metrics.HistogramBucket{Lower: b.Lower, Upper: b.Upper, Count: n})
			d.Count += n
		}
	}
	if len(d.Buckets) > 0 {
		// The exact extremes of the window are unknown; the covering
		// buckets bound them, which is all Quantile needs for clamping.
		d.Min = d.Buckets[0].Lower
		d.Max = d.Buckets[len(d.Buckets)-1].Upper
		if d.Max > after.Max {
			d.Max = after.Max
		}
	}
	return d
}

// histMerge adds two server-side histograms bucket by bucket (the router
// keeps one per SLO class and one per tenant; a phase wants them pooled).
func histMerge(a, b metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	byUpper := map[time.Duration]metrics.HistogramBucket{}
	for _, bk := range append(append([]metrics.HistogramBucket(nil), a.Buckets...), b.Buckets...) {
		cur := byUpper[bk.Upper]
		bk.Count += cur.Count
		byUpper[bk.Upper] = bk
	}
	out := metrics.HistogramSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Min: min(a.Min, b.Min), Max: max(a.Max, b.Max)}
	for _, bk := range byUpper {
		out.Buckets = append(out.Buckets, bk)
	}
	sortBuckets(out.Buckets)
	return out
}

// histP50MS is the median of the observations between two scrapes, in
// milliseconds (bucket-interpolated, so good to the histogram's √2 grid).
func histP50MS(before, after metrics.HistogramSnapshot) float64 {
	return ms(histDelta(before, after).Quantile(0.5))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortBuckets orders histogram buckets by upper bound, as Snapshot emits
// them and Quantile expects them.
func sortBuckets(bs []metrics.HistogramBucket) {
	sort.Slice(bs, func(i, j int) bool { return bs[i].Upper < bs[j].Upper })
}
