package report

import (
	"fmt"
	"strings"
	"time"

	"drainnas/internal/metrics"
)

// LatencyBars renders a metrics.HistogramSnapshot as an ASCII latency
// distribution: one proportional bar per occupied log-spaced bucket plus a
// quantile summary line. It is the terminal-side view of the same histogram
// servd exports on /metrics, shared by nascli trainer -load and the nascli
// sweep summary.
func LatencyBars(title string, snap metrics.HistogramSnapshot, width int) string {
	if width < 10 {
		width = 40
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (n=%d)\n", title, snap.Count)
	if snap.Count == 0 {
		return b.String()
	}
	var maxCount uint64
	for _, bk := range snap.Buckets {
		if bk.Count > maxCount {
			maxCount = bk.Count
		}
	}
	for _, bk := range snap.Buckets {
		upper := durLabel(bk.Upper)
		if bk.Upper > snap.Max {
			// The overflow/top bucket is open-ended; the observed max is the
			// honest upper edge.
			upper = durLabel(snap.Max)
		}
		bars := int(bk.Count * uint64(width) / maxCount)
		if bars == 0 {
			bars = 1 // occupied buckets stay visible
		}
		fmt.Fprintf(&b, "  %9s-%-9s %7d %s\n", durLabel(bk.Lower), upper, bk.Count, strings.Repeat("#", bars))
	}
	fmt.Fprintf(&b, "  p50 %.2fms  p90 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n",
		snap.P50MS, snap.P90MS, snap.P95MS, snap.P99MS, snap.MaxMS)
	return b.String()
}

// durLabel renders a bucket edge compactly (µs under 1ms, ms under 1s,
// seconds above).
func durLabel(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.3gms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3gs", d.Seconds())
	}
}
