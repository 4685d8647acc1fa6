// Command bench is the repository's end-to-end and layer-by-layer
// benchmark: it builds the real servd and router binaries, drives four
// seeded workloads against them and against the NAS pipeline, checks every
// output, and prints every metric BENCHMARK.json declares. README.md says
// what each number means and what is inside each timed region.
//
//	bash bench/run.sh -workload predict_steady -seed 1 -seconds 10 -trace 0
//
// With -trace 0 a run reports the end-to-end metrics from the real
// binaries; with -trace 1 it reports the per-layer metrics from server
// counters, an in-process traced replay of the same layers and direct
// probes. The last line of standard output is one JSON object with the
// result. Without -workload every workload runs, untraced then traced.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	name() string
	// setup does everything that must happen before the clock starts —
	// model export, reference forwards, child boot, warm-up — and returns
	// the system ready to be driven.
	setup(e *env) (instance, error)
}

// instance is a workload set up and ready.
type instance interface {
	// measure is the untraced run: it sets latency_p50_ms and
	// throughput_per_s from a phase of the given length.
	measure(phase time.Duration, rep *report) (counts, error)
	// trace is the traced run: it sets per-layer metrics.
	trace(phase time.Duration, rep *report) (counts, error)
	// close stops children and removes scratch files; an unclean stop is
	// an error.
	close() error
}

// counts is how many operations a run attempted and how many failed, were
// refused or answered wrongly.
type counts struct {
	attempted, failed int
	firstErr          error
}

var workloads = []workload{
	predictWorkload{closed: false},
	predictWorkload{closed: true},
	scanWorkload{},
	nasWorkload{},
}

// env is what every workload's set-up needs.
type env struct {
	root   string // the checkout
	binDir string // servd and router, built from it
	seed   uint64
}

// workDir makes a fresh scratch directory under the build directory; the
// instance that asked for it removes it on close.
func (e *env) workDir() (string, error) {
	return os.MkdirTemp(buildDir(e.root), "run-")
}

// setupRepeats is how many times a run sets the workload up. setup_s is the
// median; all but the last are torn down at once.
const setupRepeats = 3

// result is the last line of a run's output, in the driver's shape.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne sets w up `repeats` times, measures one phase on the last and
// tears it down. The error is non-nil when the run is void, incorrect or
// unclean.
func runOne(e *env, w workload, phase time.Duration, traced bool, repeats int) (result, error) {
	var inst instance
	setups := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return result{}, fmt.Errorf("set-up %d of %s: %w", i+1, w.name(), err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep := newReport(defs)
	var c counts
	var err error
	if traced {
		c, err = inst.trace(phase, rep)
	} else {
		rep.set("setup_s", median(setups))
		c, err = inst.measure(phase, rep)
	}
	err = errors.Join(err, inst.close())
	if c.firstErr != nil {
		err = errors.Join(err, fmt.Errorf("%d of %d operations failed, first: %w", c.failed, c.attempted, c.firstErr))
	}
	res := result{Attempted: max(c.attempted, 1), Failed: c.failed}
	if err == nil {
		res.Metrics, err = rep.finish(!traced)
	}
	res.Correct = err == nil && c.failed == 0
	return res, err
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload)")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
		jsonOut = flag.String("json", "", "also write the results to this file")
	)
	flag.Parse()
	// A benchmark that is interrupted must not leave servd or router behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		live.killAll()
		if root, err := repoRoot(); err == nil {
			dirs, _ := filepath.Glob(filepath.Join(buildDir(root), "run-*"))
			for _, d := range dirs {
				_ = os.RemoveAll(d)
			}
		}
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		os.Exit(1)
	}()
	if err := run(*name, *seed, *seconds, *trace, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, jsonOut string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds < 1 || trace < -1 || trace > 1 {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		return fmt.Errorf("void run: %d CPUs, GOMAXPROCS %d; the load generator and the system under test need at least 2", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	selected := workloads
	if name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name() == name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	modes := []bool{false, true}
	if trace >= 0 {
		modes = []bool{trace == 1}
	}

	root, err := repoRoot()
	if err != nil {
		return err
	}
	binDir, err := buildBinaries(root)
	if err != nil {
		return err
	}
	e := &env{root: root, binDir: binDir, seed: seed}

	type record struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Seconds  int    `json:"seconds"`
		Traced   bool   `json:"traced"`
		result
	}
	var records []record
	var failures []error
	for _, w := range selected {
		for _, traced := range modes {
			res, err := runOne(e, w, time.Duration(seconds)*time.Second, traced, setupRepeats)
			if err != nil {
				failures = append(failures, fmt.Errorf("%s (trace %v): %w", w.name(), traced, err))
				continue
			}
			records = append(records, record{w.name(), seed, seconds, traced, res})
			fmt.Printf("%s  seed %d  %d s  traced %v  attempted %d  failed %d\n%s",
				w.name(), seed, seconds, traced, res.Attempted, res.Failed, table(res.Metrics))
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Printf("%s\n", line)
		}
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Clean(jsonOut), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return errors.Join(failures...)
}
