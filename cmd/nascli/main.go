// Command nascli runs the NAS experiment: enumerate the search space
// (-enumerate, the textual Figure 2), run the full surrogate-backed sweep
// (default), or run real training on a miniature corpus (-backend=train).
//
// Trials stream to a JSON-lines journal as they complete, so an
// interrupted sweep keeps everything it finished: SIGINT stops handing out
// trials, drains the in-flight ones, flushes the journal and exits 130;
// rerunning with -resume reuses the journaled successes and completes the
// plan. Transient evaluator failures retry with exponential backoff
// (-retries) before landing in the journal as failed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"drainnas/internal/dataset"
	"drainnas/internal/geodata"
	"drainnas/internal/metrics"
	"drainnas/internal/nas"
	"drainnas/internal/resnet"
	"drainnas/internal/surrogate"
)

// runMultiFidelity executes the successive-halving or Hyperband strategy,
// which manage their own budgets, and prints the outcome.
func runMultiFidelity(strategy string, combos []nas.InputCombo, eval nas.Evaluator, workers int) {
	be, ok := eval.(nas.BudgetedEvaluator)
	if !ok {
		log.Fatalf("nascli: %s needs a budget-capable evaluator (surrogate backend)", strategy)
	}
	for _, combo := range combos {
		switch strategy {
		case "sh":
			space := nas.PaperSpace()
			sh, err := nas.SuccessiveHalving(space.Enumerate(combo), be, nas.SHOptions{Eta: 2, MinBudget: 0.25, Workers: workers})
			if err != nil {
				log.Fatalf("nascli: %v", err)
			}
			fmt.Printf("%dch/b%d successive halving: best %.2f%%  %s  (budget %.1f full evals vs 288 grid)\n",
				combo.Channels, combo.Batch, sh.Survivors[0].Accuracy, sh.Survivors[0].Config.Key(), sh.TotalBudget)
		case "hyperband":
			hb, err := nas.Hyperband(be, nas.HyperbandOptions{Combo: combo, Seed: 1, Workers: workers})
			if err != nil {
				log.Fatalf("nascli: %v", err)
			}
			fmt.Printf("%dch/b%d hyperband: best %.2f%%  %s  (%d brackets, budget %.1f full evals)\n",
				combo.Channels, combo.Batch, hb.Best.Accuracy, hb.Best.Config.Key(), len(hb.Brackets), hb.TotalBudget)
		}
	}
}

// selectConfigs applies the search strategy over every input combination
// and only then the trial cap, so -limit means the same thing for every
// strategy (it used to be applied to the enumerated grid before random and
// evolution rebuilt the list, silently ignoring it).
func selectConfigs(space nas.Space, strategy string, combos []nas.InputCombo, eval nas.Evaluator, n, limit int) ([]resnet.Config, error) {
	var configs []resnet.Config
	switch strategy {
	case "grid":
		configs = space.EnumerateAll(combos)
	case "random":
		for _, c := range combos {
			configs = append(configs, nas.RandomStrategy{N: n, Seed: 1}.Select(space, c)...)
		}
	case "evolution":
		for _, c := range combos {
			evo := nas.EvolutionStrategy{Population: 12, Cycles: n, SampleSize: 3, Seed: 1, Evaluator: eval}
			configs = append(configs, evo.Select(space, c)...)
		}
	default:
		return nil, fmt.Errorf("unknown strategy %q", strategy)
	}
	if limit > 0 && len(configs) > limit {
		configs = configs[:limit]
	}
	return configs, nil
}

// openJournal prepares the trial journal for streaming appends. In resume
// mode it loads prior entries first, repairing a crash-truncated tail by
// truncating the file at the reported offset and ending a last record that
// lost its newline, so appends start on a clean line boundary; otherwise the
// file is created fresh.
func openJournal(path string, resume bool, syncEvery int) (*nas.JournalWriter, []nas.TrialResult, error) {
	var prior []nas.TrialResult
	flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if resume {
		flags = os.O_RDWR | os.O_CREATE | os.O_APPEND
		f, err := os.Open(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Nothing journaled yet; -resume degrades to a fresh sweep.
		case err != nil:
			return nil, nil, err
		default:
			prior, err = nas.ReadJournal(f)
			f.Close()
			var tail *nas.JournalTailError
			if errors.As(err, &tail) {
				fmt.Printf("journal %s: truncated tail at byte %d, repairing (%d trials recovered)\n",
					path, tail.Offset, len(prior))
				if err := os.Truncate(path, tail.Offset); err != nil {
					return nil, nil, err
				}
			} else if err != nil {
				return nil, nil, err
			}
		}
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if resume {
		if err := endLastLine(f); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return nas.NewJournalWriter(f, nas.JournalWriterOptions{SyncEvery: syncEvery}), prior, nil
}

// endLastLine appends a newline to a journal whose last byte is not one:
// ReadJournal keeps a final record that lost its newline, and the first
// append would otherwise run on after it, on the same line.
func endLastLine(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] != '\n' {
		_, err = f.Write([]byte{'\n'})
	}
	return err
}

// delayEvaluator stretches every trial by a fixed delay, simulating the
// expensive evaluations of a real sweep so drain/resume behaviour can be
// exercised (and demoed) at surrogate cost.
type delayEvaluator struct {
	inner nas.Evaluator
	d     time.Duration
}

func (e delayEvaluator) Evaluate(cfg resnet.Config) (float64, error) {
	time.Sleep(e.d)
	return e.inner.Evaluate(cfg)
}

// memoEvaluator remembers every successful evaluation by configuration, so
// the evolution strategy's fitness calls and the sweep that follows share
// one evaluation per distinct configuration. Both backends are
// deterministic per configuration, so a remembered accuracy is the one a
// second evaluation would return. Failures are not remembered: the sweep's
// retries still reach the backend. Safe for concurrent use.
type memoEvaluator struct {
	inner nas.Evaluator
	mu    sync.Mutex
	acc   map[resnet.Config]float64
}

func (e *memoEvaluator) Evaluate(cfg resnet.Config) (float64, error) {
	e.mu.Lock()
	acc, ok := e.acc[cfg]
	e.mu.Unlock()
	if ok {
		return acc, nil
	}
	acc, err := e.inner.Evaluate(cfg)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.acc[cfg] = acc
	e.mu.Unlock()
	return acc, nil
}

func main() {
	var (
		enumerate  = flag.Bool("enumerate", false, "print the search space (Figure 2) and exit")
		backend    = flag.String("backend", "surrogate", "accuracy backend: surrogate | train")
		strategy   = flag.String("strategy", "grid", "search strategy: grid | random | evolution | hyperband | sh")
		budgetN    = flag.Int("n", 60, "random strategy: sample count; evolution: cycles")
		channels   = flag.Int("channels", 0, "restrict to one channel count (0 = both)")
		batch      = flag.Int("batch", 0, "restrict to one batch size (0 = all)")
		limit      = flag.Int("limit", 0, "cap the number of trials (0 = all)")
		journal    = flag.String("journal", "", "stream the trial journal to this file (one JSON line per trial)")
		resume     = flag.Bool("resume", false, "reuse successful trials from the -journal file and append new ones")
		syncEvery  = flag.Int("journal-sync", 32, "fsync the journal every N trials (0 = only at exit)")
		retries    = flag.Int("retries", 2, "retry attempts for transient trial failures (exponential backoff)")
		trialDelay = flag.Duration("trial-delay", 0, "artificial per-trial delay (drain/resume demos and tests)")
		workers    = flag.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS)")
		chip       = flag.Int("chip", 32, "train backend: chip size")
		scale      = flag.Int("scale", 300, "train backend: corpus scale divisor")
		epochs     = flag.Int("epochs", 2, "train backend: epochs per fold")
		folds      = flag.Int("folds", 2, "train backend: cross-validation folds")
	)
	flag.Parse()

	space := nas.PaperSpace()
	if *enumerate {
		fmt.Println(space.Describe())
		all := space.EnumerateAll(nas.PaperInputCombos())
		uniq := nas.UniqueConfigs(all)
		valid, failed := nas.ValidTrials(all)
		fmt.Printf("\nraw trials: %d (6 input combos x %d)\n", len(all), space.RawSize())
		fmt.Printf("distinct networks: %d\n", len(uniq))
		fmt.Printf("valid outcomes after attrition: %d (%d lost; paper: %d)\n",
			len(valid), len(failed), nas.PaperValidTrialCount)
		return
	}
	if *resume && *journal == "" {
		log.Fatal("nascli: -resume needs -journal")
	}

	combos := nas.PaperInputCombos()
	var filtered []nas.InputCombo
	for _, c := range combos {
		if (*channels == 0 || c.Channels == *channels) && (*batch == 0 || c.Batch == *batch) {
			filtered = append(filtered, c)
		}
	}

	var eval nas.Evaluator
	switch *backend {
	case "surrogate":
		eval = nas.SurrogateEvaluator{Model: surrogate.Default()}
	case "train":
		if *channels == 0 {
			log.Fatal("nascli: -backend=train requires -channels=5 or 7 (one corpus per channel count)")
		}
		fmt.Printf("generating corpus (chip %d, scale 1/%d)...\n", *chip, *scale)
		corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: *chip, Scale: *scale, Seed: 1})
		x, labels := corpus.Tensors(*channels)
		eval = nas.TrainEvaluator{Data: dataset.New(x, labels), Opts: nas.TrainOptions{
			Epochs: *epochs, Folds: *folds, LR: 0.02, Momentum: 0.9, WeightDecay: 1e-4, Seed: 1,
		}}
	default:
		log.Fatalf("nascli: unknown backend %q", *backend)
	}

	if *strategy == "hyperband" || *strategy == "sh" {
		runMultiFidelity(*strategy, filtered, eval, *workers)
		return
	}
	memo := &memoEvaluator{inner: eval, acc: map[resnet.Config]float64{}}
	configs, err := selectConfigs(space, *strategy, filtered, memo, *budgetN, *limit)
	if err != nil {
		log.Fatalf("nascli: %v", err)
	}

	// Durability plumbing: streamed journal, prior entries on resume.
	var jw *nas.JournalWriter
	var prior []nas.TrialResult
	if *journal != "" {
		jw, prior, err = openJournal(*journal, *resume, *syncEvery)
		if err != nil {
			log.Fatalf("nascli: opening journal: %v", err)
		}
	}
	remaining, reused := nas.FilterCompleted(configs, prior)
	if *resume {
		fmt.Printf("resuming: %d/%d trials reused from journal, %d to run\n",
			len(reused), len(configs), len(remaining))
	}

	// SIGINT/SIGTERM cancels the sweep context: no new trials start, the
	// in-flight ones drain and reach the journal. A second signal falls
	// through to the runtime's default handling (immediate death).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sweepDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr, "\nnascli: interrupt — draining in-flight trials (press again to kill)")
			stop()
		case <-sweepDone:
		}
	}()

	stats := &metrics.SweepStats{}
	stats.Begin(len(configs), len(reused))
	var runEval nas.Evaluator = memo
	if *trialDelay > 0 {
		runEval = delayEvaluator{inner: runEval, d: *trialDelay}
	}
	runEval = nas.RetryEvaluator{
		Inner:       runEval,
		MaxAttempts: *retries + 1,
		OnRetry:     func(int, error) { stats.Retried() },
	}

	opts := nas.ExperimentOptions{
		Workers:           *workers,
		SimulateAttrition: *backend == "surrogate" && *strategy == "grid",
		Stats:             stats,
		ProgressOffset:    len(reused),
		ProgressTotal:     len(configs),
		Progress: func(done, total int) {
			if done%200 == 0 || done == total {
				if eta := stats.Snapshot().ETA; eta > 0 {
					fmt.Printf("  %d/%d trials (eta %s)\n", done, total, eta.Round(time.Second))
				} else {
					fmt.Printf("  %d/%d trials\n", done, total)
				}
			}
		},
	}
	if jw != nil {
		opts.Journal = jw
	}

	fmt.Printf("running %d trials (%s backend, %s strategy)...\n", len(remaining), *backend, *strategy)
	start := time.Now()
	fresh, runErr := nas.ExperimentContext(ctx, remaining, runEval, opts)
	elapsed := time.Since(start)
	close(sweepDone)
	results := nas.MergeResults(configs, reused, fresh)

	// The journal must land on disk before the run is declared good: a
	// deferred, unchecked Close would report a truncated journal (ENOSPC)
	// as "journal written".
	if jw != nil {
		if cerr := jw.Close(); cerr != nil {
			log.Fatalf("nascli: %v", cerr)
		}
	}

	if runErr != nil && errors.Is(runErr, context.Canceled) {
		fmt.Printf("\ninterrupted: %s\n", stats.Snapshot())
		fmt.Printf("%d/%d trials have journaled outcomes — rerun with -resume -journal=%s to finish\n",
			len(results), len(configs), *journal)
		os.Exit(130)
	}
	if runErr != nil {
		log.Fatalf("nascli: %v", runErr)
	}

	ok := nas.Succeeded(results)
	rate := 0.0
	if elapsed > 0 {
		rate = float64(len(fresh)) / elapsed.Seconds()
	}
	fmt.Printf("\nsweep complete: %d/%d trials succeeded in %s (%.1f fresh trials/s)\n",
		len(ok), len(results), elapsed.Round(time.Millisecond), rate)
	snap := stats.Snapshot()
	fmt.Printf("counters: %s\n", snap)
	if snap.Trials.Count > 0 {
		fmt.Printf("trial wall time: p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n",
			snap.Trials.P50MS, snap.Trials.P95MS, snap.Trials.P99MS, snap.Trials.MaxMS)
	}
	best, found := nas.BestByAccuracy(results)
	if found {
		fmt.Printf("best: %.2f%%  %s\n", best.Accuracy, best.Config.Key())
	}
	fmt.Println("\ntop 5 trials:")
	for _, r := range nas.TopK(results, 5) {
		fmt.Printf("  %.2f%%  %s\n", r.Accuracy, r.Config.Key())
	}
	if jw != nil {
		fmt.Printf("\njournal written to %s (%d trials this run)\n", *journal, jw.Count())
	}
}
