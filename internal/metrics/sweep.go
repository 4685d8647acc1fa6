package metrics

import (
	"fmt"
	"sync"
	"time"
)

// SweepStats aggregates trial-level counters for a NAS sweep: outcomes,
// retries, journal reuse and an ETA derived from the observed completion
// rate. All methods are safe for concurrent use (trials finish on worker
// goroutines), and every method is a no-op on a nil receiver so
// instrumentation points need no nil checks.
type SweepStats struct {
	mu sync.Mutex
	// c is the snapshot's plan and counters; Snapshot fills in the rest.
	c      SweepSnapshot
	trials Histogram // per-trial wall time, succeeded and failed alike
	start  time.Time
}

// locked runs f under the lock; a nil sink runs nothing.
func (s *SweepStats) locked(f func()) {
	if s == nil {
		return
	}
	s.mu.Lock()
	f()
	s.mu.Unlock()
}

// Begin records the sweep plan: total trials in the full plan and how many
// were reused from a journal, and stamps the clock the ETA counts from.
func (s *SweepStats) Begin(total, reused int) {
	s.locked(func() { s.c.Total, s.c.Reused, s.start = total, reused, time.Now() })
}

// TrialDone records one successful trial and its duration.
func (s *SweepStats) TrialDone(d time.Duration) {
	s.locked(func() {
		s.c.Succeeded++
		s.trials.Observe(d)
	})
}

// TrialFailed records one trial that exhausted its attempts.
func (s *SweepStats) TrialFailed(d time.Duration) {
	s.locked(func() {
		s.c.Failed++
		s.trials.Observe(d)
	})
}

// Retried records one retry of a transiently-failed trial.
func (s *SweepStats) Retried() {
	s.locked(func() { s.c.Retried++ })
}

// SweepSnapshot is a point-in-time copy of the counters with the derived
// rates a progress line wants.
type SweepSnapshot struct {
	Total     int    `json:"total" prom:"drainnas_sweep_trials_planned" help:"Full plan size, journal-reused trials included."`
	Reused    int    `json:"reused" prom:"drainnas_sweep_trials_reused" help:"Trials satisfied from a resumed journal."`
	Succeeded uint64 `json:"succeeded" prom:"drainnas_sweep_trials_succeeded_total" help:"Trials that completed successfully."`
	Failed    uint64 `json:"failed" prom:"drainnas_sweep_trials_failed_total" help:"Trials that exhausted their attempts."`
	Retried   uint64 `json:"retried" prom:"drainnas_sweep_trial_retries_total" help:"Retries of transiently-failed trials."`
	Remaining int    `json:"remaining" prom:"drainnas_sweep_trials_remaining" help:"Trials not yet completed."`

	// MeanTrialMS restates Trials' mean for JSON readers.
	MeanTrialMS float64 `json:"mean_trial_ms"`
	// Trials is the per-trial wall-time distribution (succeeded and failed
	// trials both count), the histogram behind the p50/p95/p99 summary the
	// CLI prints at the end of a sweep.
	Trials  HistogramSnapshot `json:"trials" prom:"drainnas_sweep_trial_seconds" help:"Wall time of completed trials."`
	Elapsed time.Duration     `json:"elapsed_ns"`
	// ETA extrapolates the remaining wall time from the completion rate so
	// far (which already reflects worker parallelism); zero until at least
	// one trial has completed.
	ETA time.Duration `json:"eta_ns" prom:"drainnas_sweep_eta_seconds" help:"Extrapolated remaining wall time."`
}

// Snapshot returns a consistent copy of the counters.
func (s *SweepStats) Snapshot() (snap SweepSnapshot) {
	s.locked(func() {
		snap = s.c
		snap.Trials = s.trials.Snapshot()
		snap.MeanTrialMS = snap.Trials.MeanMS
		completed := snap.Succeeded + snap.Failed
		snap.Remaining = max(snap.Total-snap.Reused-int(completed), 0)
		if !s.start.IsZero() {
			snap.Elapsed = time.Since(s.start)
			if completed > 0 && snap.Remaining > 0 {
				snap.ETA = snap.Elapsed / time.Duration(completed) * time.Duration(snap.Remaining)
			}
		}
	})
	return snap
}

// String renders the snapshot on one line.
func (s SweepSnapshot) String() string {
	line := fmt.Sprintf("done=%d fail=%d retry=%d reuse=%d remaining=%d/%d",
		s.Succeeded, s.Failed, s.Retried, s.Reused, s.Remaining, s.Total)
	if s.ETA > 0 {
		line += fmt.Sprintf(" eta=%s", s.ETA.Round(time.Second))
	}
	return line
}
