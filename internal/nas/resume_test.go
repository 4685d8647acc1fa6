package nas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"drainnas/internal/metrics"
	"drainnas/internal/surrogate"
)

// normalizeResults strips the wall-clock fields so two runs of the same
// deterministic sweep can be compared byte for byte.
func normalizeResults(t *testing.T, results []TrialResult) []byte {
	t.Helper()
	norm := append([]TrialResult{}, results...)
	for i := range norm {
		norm[i].Duration = 0
	}
	data, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCrashResumeMatchesUninterrupted is the end-to-end durability check:
// a sweep with transient faults is cancelled mid-run while streaming its
// journal; the journal then loses half of its final line (the crash); the
// tolerant reader recovers the complete entries and a resumed sweep must
// produce results byte-identical (modulo durations) to a run that was
// never interrupted.
func TestCrashResumeMatchesUninterrupted(t *testing.T) {
	cfgs := PaperSpace().Enumerate(InputCombo{5, 8})[:40]
	base := SurrogateEvaluator{Model: surrogate.Default()}

	// Reference: the uninterrupted, fault-free sweep.
	want := Experiment(cfgs, base, ExperimentOptions{Workers: 4})

	// Interrupted run: transient faults + retry, journal streamed to disk,
	// context cancelled after 10 completions.
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	jw := NewJournalWriter(f, JournalWriterOptions{SyncEvery: 4})
	mkEval := func() Evaluator {
		return RetryEvaluator{
			Inner:       &FlakyEvaluator{Inner: base, FailFirst: 1, Delay: time.Millisecond},
			MaxAttempts: 3,
			Sleep:       func(time.Duration) {},
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, runErr := ExperimentContext(ctx, cfgs, mkEval(), ExperimentOptions{
		Workers: 4,
		Journal: jw,
		Progress: func(done, total int) {
			if done == 10 {
				cancel()
			}
		},
	})
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", runErr)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if len(partial) == 0 || len(partial) >= len(cfgs) {
		t.Fatalf("cancellation produced %d/%d results", len(partial), len(cfgs))
	}
	// Every completed trial reached the journal before ExperimentContext
	// returned (drain guarantee).
	journaled, err := func() ([]TrialResult, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return ReadJournal(bytes.NewReader(data))
	}()
	if err != nil {
		t.Fatal(err)
	}
	if len(journaled) != len(partial) {
		t.Fatalf("journal holds %d trials, %d completed", len(journaled), len(partial))
	}

	// The crash: the final journal line is cut in half.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	lastStart := len(raw) - len(lines[len(lines)-2])
	chopped := raw[:lastStart+(len(raw)-lastStart)/2]
	if err := os.WriteFile(path, chopped, 0o644); err != nil {
		t.Fatal(err)
	}

	// Tolerant reload: all complete entries recovered, bad tail reported.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recovered, rerr := ReadJournal(bytes.NewReader(data))
	var tail *JournalTailError
	if !errors.As(rerr, &tail) {
		t.Fatalf("reload error = %v, want *JournalTailError", rerr)
	}
	if tail.Offset != int64(lastStart) {
		t.Fatalf("tail offset %d, want %d", tail.Offset, lastStart)
	}
	if len(recovered) != len(journaled)-1 {
		t.Fatalf("recovered %d entries, want %d", len(recovered), len(journaled)-1)
	}

	// Resume: journaled successes reused, the rest re-run (fresh fault
	// injection, so remaining trials fail once and retry again).
	remaining, reused := FilterCompleted(cfgs, recovered)
	fresh, err := ExperimentContext(context.Background(), remaining, mkEval(), ExperimentOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	resumed := MergeResults(cfgs, reused, fresh)
	if len(resumed) != len(cfgs) {
		t.Fatalf("resumed sweep has %d/%d results", len(resumed), len(cfgs))
	}
	// Reused trials keep their journaled durations; only re-run trials may
	// differ in Duration. Everything else must be identical.
	if got, ref := normalizeResults(t, resumed), normalizeResults(t, want); !bytes.Equal(got, ref) {
		t.Fatalf("resumed results differ from uninterrupted run:\n%s\nvs\n%s", got, ref)
	}
}

func TestResumeProgressReportsFullPlan(t *testing.T) {
	cfgs := PaperSpace().Enumerate(InputCombo{5, 8})[:30]
	eval := SurrogateEvaluator{Model: surrogate.Default()}
	full := Experiment(cfgs, eval, ExperimentOptions{})
	var buf bytes.Buffer
	writeJournal(t, &buf, full[:12])
	prior, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Progress reports against the full plan, as cmd/nascli wires it: done
	// counts the reused trials, total is every configuration.
	remaining, reused := FilterCompleted(cfgs, prior)
	var mu sync.Mutex
	var dones []int
	totals := map[int]bool{}
	Experiment(remaining, eval, ExperimentOptions{
		Workers:        3,
		ProgressOffset: len(reused),
		ProgressTotal:  len(cfgs),
		Progress: func(done, total int) {
			mu.Lock()
			dones = append(dones, done)
			totals[total] = true
			mu.Unlock()
		},
	})
	if len(totals) != 1 || !totals[30] {
		t.Fatalf("progress totals %v, want the full 30-trial plan", totals)
	}
	if len(dones) != 18 {
		t.Fatalf("progress fired %d times, want 18 (fresh trials only)", len(dones))
	}
	lo, hi := dones[0], dones[0]
	for _, d := range dones {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo != 13 || hi != 30 {
		t.Fatalf("done range [%d, %d], want [13, 30]", lo, hi)
	}
}

func TestExperimentContextRecordsSweepStats(t *testing.T) {
	cfgs := PaperSpace().Enumerate(InputCombo{5, 8})[:20]
	base := SurrogateEvaluator{Model: surrogate.Default()}
	stats := &metrics.SweepStats{}
	stats.Begin(len(cfgs), 0)
	eval := RetryEvaluator{
		Inner:       &FlakyEvaluator{Inner: base, FailFirst: 1},
		MaxAttempts: 2,
		Sleep:       func(time.Duration) {},
		OnRetry:     func(int, error) { stats.Retried() },
	}
	results, err := ExperimentContext(context.Background(), cfgs, eval, ExperimentOptions{Workers: 4, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if len(Succeeded(results)) != len(cfgs) {
		t.Fatalf("%d/%d trials succeeded", len(Succeeded(results)), len(cfgs))
	}
	snap := stats.Snapshot()
	if snap.Succeeded != uint64(len(cfgs)) || snap.Failed != 0 {
		t.Fatalf("counters: %s", snap)
	}
	if snap.Retried != uint64(len(cfgs)) {
		t.Fatalf("retried %d, want one retry per trial", snap.Retried)
	}
	if snap.Remaining != 0 {
		t.Fatalf("remaining %d after a full sweep", snap.Remaining)
	}
}

// failingSink rejects every append.
type failingSink struct{}

func (failingSink) Append(TrialResult) error { return fmt.Errorf("sink broken") }

func TestExperimentContextReportsJournalError(t *testing.T) {
	cfgs := PaperSpace().Enumerate(InputCombo{5, 8})[:5]
	eval := SurrogateEvaluator{Model: surrogate.Default()}
	results, err := ExperimentContext(context.Background(), cfgs, eval, ExperimentOptions{
		Workers: 2,
		Journal: failingSink{},
	})
	if err == nil {
		t.Fatal("journal failure was swallowed")
	}
	// The sweep itself still completes; only the durability layer failed.
	if len(results) != len(cfgs) {
		t.Fatalf("results %d/%d", len(results), len(cfgs))
	}
}
