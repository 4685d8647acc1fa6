package nas

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"drainnas/internal/metrics"
	"drainnas/internal/parallel"
	"drainnas/internal/resnet"
)

// TrialStatus is the outcome state of one trial.
type TrialStatus string

// Trial outcomes.
const (
	TrialSucceeded TrialStatus = "succeeded"
	TrialFailed    TrialStatus = "failed"
)

// TrialResult records one NAS trial, mirroring an NNI trial record.
type TrialResult struct {
	ID       int           `json:"id"`
	Config   resnet.Config `json:"config"`
	Status   TrialStatus   `json:"status"`
	Accuracy float64       `json:"accuracy"` // percent, valid when succeeded
	Err      string        `json:"error,omitempty"`
	Duration time.Duration `json:"duration_ns"`
}

// ExperimentOptions configures a NAS experiment run.
type ExperimentOptions struct {
	// Workers is the trial-level parallelism (NNI's trial concurrency);
	// <= 0 selects GOMAXPROCS.
	Workers int
	// SimulateAttrition applies the paper-calibrated trial failure model so
	// a full paper grid yields exactly 1,717 valid outcomes.
	SimulateAttrition bool
	// Progress, when non-nil, receives (done, total) after every trial. It
	// is invoked concurrently from worker goroutines and must be safe for
	// concurrent use.
	Progress func(done, total int)
	// ProgressOffset shifts the done count and ProgressTotal overrides the
	// total reported to Progress (0 means len(configs) + ProgressOffset).
	// A resumed sweep sets these so a 288-trial plan with 276 journaled
	// trials reports "277/288", not "1/12".
	ProgressOffset int
	ProgressTotal  int
	// Journal, when non-nil, receives each trial as it completes — the
	// streaming durability hook. Appends happen on worker goroutines in
	// completion order (not input order); the sink must be safe for
	// concurrent use. The first append error is reported by
	// ExperimentContext; the sweep itself keeps running.
	Journal TrialSink
	// Stats, when non-nil, receives per-trial outcome counters (retries are
	// counted by RetryEvaluator.OnRetry, which the caller wires up).
	Stats *metrics.SweepStats
}

// progressTotal resolves the total reported to the Progress callback.
func (o ExperimentOptions) progressTotal(n int) int {
	if o.ProgressTotal > 0 {
		return o.ProgressTotal
	}
	return n + o.ProgressOffset
}

// Experiment runs every configuration through the evaluator with dynamic
// load balancing (trials differ wildly in cost) and returns results in
// input order. It never stops early; for a cancellable sweep use
// ExperimentContext.
func Experiment(configs []resnet.Config, eval Evaluator, opts ExperimentOptions) []TrialResult {
	results, _ := ExperimentContext(context.Background(), configs, eval, opts)
	return results
}

// ExperimentContext is Experiment with cooperative cancellation: once ctx
// is cancelled no new trial starts, trials already running drain to
// completion (and reach opts.Journal), and the completed results come back
// in input order. The returned slice holds only trials that actually ran —
// len(results) < len(configs) after a cancellation. The error is ctx.Err()
// when the sweep was cut short, else the first journal append failure, else
// nil.
func ExperimentContext(ctx context.Context, configs []resnet.Config, eval Evaluator, opts ExperimentOptions) ([]TrialResult, error) {
	results := make([]TrialResult, len(configs))
	ran := make([]bool, len(configs))
	var done atomic.Int64
	var journalErr error
	var journalOnce sync.Once
	ctxErr := parallel.MapCtx(ctx, len(configs), opts.Workers, func(i int) {
		cfg := configs[i]
		start := time.Now()
		res := TrialResult{ID: i, Config: cfg}
		if opts.SimulateAttrition && Attrition(i, cfg) {
			res.Status = TrialFailed
			res.Err = "trial attrition (simulated NNI worker failure)"
		} else if acc, err := eval.Evaluate(cfg); err != nil {
			res.Status = TrialFailed
			res.Err = err.Error()
		} else {
			res.Status = TrialSucceeded
			res.Accuracy = acc
		}
		res.Duration = time.Since(start)
		if res.Status == TrialSucceeded {
			opts.Stats.TrialDone(res.Duration)
		} else {
			opts.Stats.TrialFailed(res.Duration)
		}
		results[i] = res
		ran[i] = true
		if opts.Journal != nil {
			if err := opts.Journal.Append(res); err != nil {
				journalOnce.Do(func() { journalErr = err })
			}
		}
		if opts.Progress != nil {
			opts.Progress(int(done.Add(1))+opts.ProgressOffset, opts.progressTotal(len(configs)))
		}
	})
	if ctxErr == nil {
		// Full run: every slot is filled, skip the compaction scan.
		return results, journalErr
	}
	completed := results[:0]
	for i, r := range results {
		if ran[i] {
			completed = append(completed, r)
		}
	}
	return completed, ctxErr
}

// Succeeded filters an experiment's results to its valid outcomes.
func Succeeded(results []TrialResult) []TrialResult {
	n := 0
	for i := range results {
		if results[i].Status == TrialSucceeded {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]TrialResult, 0, n)
	for _, r := range results {
		if r.Status == TrialSucceeded {
			out = append(out, r)
		}
	}
	return out
}

// BestByAccuracy returns the highest-accuracy successful trial; ok is false
// when none succeeded.
func BestByAccuracy(results []TrialResult) (TrialResult, bool) {
	best := TrialResult{Accuracy: -1}
	ok := false
	for _, r := range results {
		if r.Status == TrialSucceeded && r.Accuracy > best.Accuracy {
			best = r
			ok = true
		}
	}
	return best, ok
}

// Resume support: a long NNI-style sweep interrupted mid-run restarts from
// its journal, re-running only the trials that have no recorded outcome.

// FilterCompleted splits configs into those already covered by journal
// entries (same raw configuration, succeeded) and those still to run.
// Failed journal entries are retried.
func FilterCompleted(configs []resnet.Config, journal []TrialResult) (remaining []resnet.Config, completed []TrialResult) {
	done := make(map[resnet.Config]TrialResult, len(journal))
	for _, r := range journal {
		if r.Status == TrialSucceeded {
			done[r.Config] = r
		}
	}
	for _, cfg := range configs {
		if r, ok := done[cfg]; ok {
			completed = append(completed, r)
		} else {
			remaining = append(remaining, cfg)
		}
	}
	return remaining, completed
}

// MergeResults orders trial outcomes by the plan: for each config (in
// order) it takes the outcome from the last set that has one, reassigns
// IDs to plan positions, and skips configs with no outcome yet (a sweep
// interrupted before reaching them). Typical use merges journal-reused
// results with a fresh partial run, fresh last so re-runs win.
func MergeResults(configs []resnet.Config, sets ...[]TrialResult) []TrialResult {
	byCfg := make(map[resnet.Config]TrialResult)
	for _, set := range sets {
		for _, r := range set {
			byCfg[r.Config] = r
		}
	}
	out := make([]TrialResult, 0, len(configs))
	for i, cfg := range configs {
		r, ok := byCfg[cfg]
		if !ok {
			continue
		}
		r.ID = i
		out = append(out, r)
	}
	return out
}
