package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"drainnas/internal/nas"
	"drainnas/internal/resnet"
	"drainnas/internal/surrogate"
)

func surrogateEval() nas.Evaluator {
	return nas.SurrogateEvaluator{Model: surrogate.Default()}
}

// TestSelectConfigsLimitAppliesToEveryStrategy pins the -limit fix: the cap
// used to be applied to the enumerated grid before random/evolution rebuilt
// the config list, so it silently did nothing for those strategies.
func TestSelectConfigsLimitAppliesToEveryStrategy(t *testing.T) {
	space := nas.PaperSpace()
	combos := []nas.InputCombo{{Channels: 5, Batch: 8}}
	for _, tc := range []struct {
		strategy string
		n        int
	}{
		{"grid", 0},
		{"random", 40},
		{"evolution", 20},
	} {
		configs, err := selectConfigs(space, tc.strategy, combos, surrogateEval(), tc.n, 7)
		if err != nil {
			t.Fatalf("%s: %v", tc.strategy, err)
		}
		if len(configs) != 7 {
			t.Fatalf("%s: -limit=7 produced %d configs", tc.strategy, len(configs))
		}
	}
	if _, err := selectConfigs(space, "bogus", combos, surrogateEval(), 0, 0); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// No limit: the full selection comes back.
	configs, err := selectConfigs(space, "random", combos, surrogateEval(), 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 40 {
		t.Fatalf("random without limit produced %d configs", len(configs))
	}
}

// countingEvaluator counts backend evaluations per configuration.
type countingEvaluator struct {
	inner nas.Evaluator
	mu    sync.Mutex
	calls map[resnet.Config]int
}

func (e *countingEvaluator) Evaluate(cfg resnet.Config) (float64, error) {
	e.mu.Lock()
	e.calls[cfg]++
	e.mu.Unlock()
	return e.inner.Evaluate(cfg)
}

// TestEvolutionEvaluatesEachConfigOnce: the evolution strategy scores its
// population through the same memo the sweep then runs on, so a run pays
// one backend evaluation per distinct configuration — a k-fold training
// run each with -backend=train — and the trials keep the accuracies a
// fresh evaluation gives.
func TestEvolutionEvaluatesEachConfigOnce(t *testing.T) {
	counter := &countingEvaluator{inner: surrogateEval(), calls: map[resnet.Config]int{}}
	memo := &memoEvaluator{inner: counter, acc: map[resnet.Config]float64{}}
	combos := []nas.InputCombo{{Channels: 5, Batch: 8}}
	configs, err := selectConfigs(nas.PaperSpace(), "evolution", combos, memo, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	results := nas.Experiment(configs, memo, nas.ExperimentOptions{Workers: 2})
	// Selection also scores raw configurations that UniqueConfigs folds
	// away (pool parameters of a pool-less stem), so the backend may see
	// more configurations than the sweep runs, but none twice.
	for cfg, n := range counter.calls {
		if n != 1 {
			t.Fatalf("config %+v evaluated %d times", cfg, n)
		}
	}
	for _, r := range results {
		if counter.calls[r.Config] != 1 {
			t.Fatalf("trial %+v: %d evaluations", r.Config, counter.calls[r.Config])
		}
		want, err := surrogateEval().Evaluate(r.Config)
		if err != nil || r.Status != nas.TrialSucceeded || r.Accuracy != want {
			t.Fatalf("trial %+v: got %v (%s), want %v (err %v)", r.Config, r.Accuracy, r.Status, want, err)
		}
	}
}

// TestOpenJournalRepairsTruncatedTail covers the resume path against a
// journal whose end a crash left behind: a cut record is cut off at the
// reported offset, a whole record that lost its newline is kept, and in both
// cases appends continue on a clean line boundary.
func TestOpenJournalRepairsTruncatedTail(t *testing.T) {
	cfgs := nas.PaperSpace().Enumerate(nas.InputCombo{Channels: 5, Batch: 8})[:8]
	results := nas.Experiment(cfgs, surrogateEval(), nas.ExperimentOptions{Workers: 1})
	var buf bytes.Buffer
	jw := nas.NewJournalWriter(&buf, nas.JournalWriterOptions{})
	for _, r := range results[:6] {
		if err := jw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.Bytes()
	for _, tc := range []struct {
		name      string
		file      []byte
		recovered int
	}{
		{"cut-record", full[:len(full)-20], 5},
		{"lost-newline", full[:len(full)-1], 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			jw, prior, err := openJournal(path, true, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(prior) != tc.recovered {
				t.Fatalf("recovered %d entries, want %d", len(prior), tc.recovered)
			}
			// Append the trials the journal lacks; it must read back clean and whole.
			for _, r := range results[tc.recovered:] {
				if err := jw.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			back, err := nas.ReadJournal(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("repaired journal unreadable: %v", err)
			}
			if len(back) != len(results) {
				t.Fatalf("repaired journal has %d entries, want %d", len(back), len(results))
			}
		})
	}
}

func TestOpenJournalResumeWithoutFileStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing.jsonl")
	jw, prior, err := openJournal(path, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("prior entries from a missing file: %d", len(prior))
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
}

func buildNascli(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nascli")
	build := exec.Command("go", "build", "-o", bin, "drainnas/cmd/nascli")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func journalLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte("\n"))
}

// TestNascliInterruptThenResume is the binary-level acceptance check:
// SIGINT mid-sweep exits 130 with a valid journal of everything that
// completed, and a -resume run finishes the plan with results identical to
// an uninterrupted sweep.
func TestNascliInterruptThenResume(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	bin := buildNascli(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.jsonl")
	sweepArgs := []string{"-strategy=random", "-n=40", "-channels=5", "-batch=8", "-workers=2", "-journal=" + journal}

	// Phase 1: start a slow sweep, interrupt once it has journaled a few
	// trials.
	var out1 bytes.Buffer
	cmd := exec.Command(bin, append(sweepArgs, "-trial-delay=100ms")...)
	cmd.Stdout, cmd.Stderr = &out1, &out1
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for journalLines(t, journal) < 5 {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("journal never grew; output:\n%s", out1.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil || cmd.ProcessState.ExitCode() != 130 {
		t.Fatalf("interrupted run: err=%v exit=%d\n%s", err, cmd.ProcessState.ExitCode(), out1.String())
	}
	if !strings.Contains(out1.String(), "-resume") {
		t.Fatalf("interrupt output does not point at -resume:\n%s", out1.String())
	}
	data, rerr := os.ReadFile(journal)
	if rerr != nil {
		t.Fatal(rerr)
	}
	partial, rerr := nas.ReadJournal(bytes.NewReader(data))
	if rerr != nil {
		t.Fatalf("post-interrupt journal not clean: %v", rerr)
	}
	if len(partial) < 5 || len(partial) >= 40 {
		t.Fatalf("post-interrupt journal has %d trials", len(partial))
	}

	// Phase 2: resume (full speed) and finish.
	out2, rerr2 := exec.Command(bin, append(sweepArgs, "-resume")...).CombinedOutput()
	if rerr2 != nil {
		t.Fatalf("resume run: %v\n%s", rerr2, out2)
	}
	for _, want := range []string{"resuming:", "reused from journal", "sweep complete:", "journal written to"} {
		if !strings.Contains(string(out2), want) {
			t.Fatalf("resume output missing %q:\n%s", want, out2)
		}
	}

	// Phase 3: an uninterrupted reference sweep; the surrogate is
	// deterministic, so per-config accuracies must match exactly.
	refJournal := filepath.Join(dir, "ref.jsonl")
	refArgs := []string{"-strategy=random", "-n=40", "-channels=5", "-batch=8", "-workers=2", "-journal=" + refJournal}
	if out, err := exec.Command(bin, refArgs...).CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}
	// Map by the raw config struct: Key() collapses no-pool variants, but
	// the plan is defined over raw configurations.
	readByConfig := func(path string) map[resnet.Config]float64 {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := nas.ReadJournal(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		m := map[resnet.Config]float64{}
		for _, r := range entries {
			if r.Status == nas.TrialSucceeded {
				m[r.Config] = r.Accuracy
			}
		}
		return m
	}
	got, want := readByConfig(journal), readByConfig(refJournal)
	if len(got) != len(want) || len(want) != 40 {
		t.Fatalf("resumed sweep covered %d configs, reference %d, want 40", len(got), len(want))
	}
	for k, acc := range want {
		if got[k] != acc {
			t.Fatalf("config %+v: resumed %.4f vs reference %.4f", k, got[k], acc)
		}
	}
}
