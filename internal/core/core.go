// Package core ties the substrates into the paper's pipeline: run the NAS
// experiment over the six input combinations (NNI), predict each valid
// outcome's inference latency on the four device predictors (nn-Meter),
// measure its ONNX memory footprint, and extract the non-dominated set of
// the three objectives (accuracy ↑, latency ↓, memory ↓) by Pareto front
// analysis.
//
// This is the library's primary public API; nascli paretoviz, the examples and
// the benchmark harness are thin layers over it.
package core

import (
	"fmt"
	"sort"
	"sync"

	"drainnas/internal/latmeter"
	"drainnas/internal/nas"
	"drainnas/internal/onnxsize"
	"drainnas/internal/parallel"
	"drainnas/internal/pareto"
	"drainnas/internal/resnet"
)

// Objectives are the paper's three optimization directions, in the order
// (accuracy, latency, memory).
var Objectives = []pareto.Direction{pareto.Maximize, pareto.Minimize, pareto.Minimize}

// Trial is one valid NAS outcome with all three objective measurements
// attached — one row of the paper's experimental data.
type Trial struct {
	Config    resnet.Config      `json:"config"`
	Accuracy  float64            `json:"accuracy"`   // percent, 5-fold mean
	LatencyMS float64            `json:"latency_ms"` // mean over 4 predictors
	LatStdMS  float64            `json:"lat_std_ms"` // std over 4 predictors
	PerDevice map[string]float64 `json:"per_device_ms"`
	MemoryMB  float64            `json:"memory_mb"` // ONNX export size
	EnergyMJ  float64            `json:"energy_mj"` // mean per-inference energy
}

// Options configures a pipeline run.
type Options struct {
	// Space defaults to nas.PaperSpace().
	Space nas.Space
	// Combos defaults to nas.PaperInputCombos().
	Combos []nas.InputCombo
	// Evaluator scores candidate accuracy; required.
	Evaluator nas.Evaluator
	// InputSize for latency prediction; defaults to
	// latmeter.DefaultInputSize.
	InputSize int
	// Workers is trial-level parallelism (<= 0: GOMAXPROCS), for the NAS
	// phase and for measuring its valid outcomes.
	Workers int
	// SimulateAttrition drops the paper-calibrated 11 trials so a full grid
	// yields 1,717 valid outcomes.
	SimulateAttrition bool
}

// Result is the full pipeline output.
type Result struct {
	// Trials are the valid outcomes (failed trials excluded).
	Trials []Trial
	// RawTrials counts all attempted trials including failures.
	RawTrials int
	// FrontIdx indexes Trials: the non-dominated set.
	FrontIdx []int
}

// Run executes the pipeline: NAS sweep → latency prediction → memory
// measurement → Pareto analysis.
func Run(opts Options) (*Result, error) {
	if opts.Evaluator == nil {
		return nil, fmt.Errorf("core: Options.Evaluator is required")
	}
	if opts.Space.RawSize() == 0 {
		opts.Space = nas.PaperSpace()
	}
	if opts.Combos == nil {
		opts.Combos = nas.PaperInputCombos()
	}

	configs := opts.Space.EnumerateAll(opts.Combos)
	results := nas.Experiment(configs, opts.Evaluator, nas.ExperimentOptions{
		Workers:           opts.Workers,
		SimulateAttrition: opts.SimulateAttrition,
	})

	valid := nas.Succeeded(results)
	trials, bad, err := measureAll(len(valid), opts.Workers, func(i int) (Trial, error) {
		return Measure(valid[i].Config, valid[i].Accuracy, opts.InputSize)
	})
	if err != nil {
		r := valid[bad]
		return nil, fmt.Errorf("core: measuring trial %d (%s): %w", r.ID, r.Config.Key(), err)
	}
	res := &Result{RawTrials: len(results), Trials: trials}
	res.FrontIdx = pareto.NonDominated(res.Points(), Objectives)
	sortFront(res)
	return res, nil
}

// measureAll runs measure(i) for every i in [0, n) on up to workers
// goroutines and returns the trials indexed like a serial loop over i. On
// failure it returns the lowest failing index and its error — the one that
// serial loop would have stopped at, whichever worker failed first.
func measureAll(n, workers int, measure func(i int) (Trial, error)) ([]Trial, int, error) {
	if n == 0 {
		return nil, 0, nil // a sweep with no valid trial keeps nil Trials
	}
	trials := make([]Trial, n)
	errs := make([]error, n)
	parallel.ForChunked(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if trials[i], errs[i] = measure(i); errs[i] != nil {
				return // later indices of this chunk cannot be the lowest
			}
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, i, err
		}
	}
	return trials, 0, nil
}

// Measure attaches the latency, memory and energy objectives to one
// configuration whose accuracy is already known. It lowers the
// configuration once and reads every objective off that one layer list:
// the kernel graph for latency and energy, the export for memory. The
// lowering reuses a pooled measurer's buffers and prices each kernel from
// its table, so every caller — Run's and NSGA2's workers included — takes
// this one path.
func Measure(cfg resnet.Config, accuracy float64, inputSize int) (Trial, error) {
	m := measurers.Get().(*measurer)
	defer measurers.Put(m)
	return m.measure(cfg, accuracy, inputSize)
}

// measurer is the state one goroutine measures with: the layer and kernel
// buffers every trial lowers into, and the tables its kernels' prices and
// its layers' export sizes are looked up in. Each distinct kernel and
// layer is priced once per measurer.
type measurer struct {
	layers  []resnet.Layer
	kernels []latmeter.Kernel
	pricer  *latmeter.Pricer
	sizer   *onnxsize.Sizer
}

var measurers = sync.Pool{New: func() any {
	return &measurer{pricer: latmeter.NewPricer(), sizer: onnxsize.NewSizer()}
}}

func (m *measurer) measure(cfg resnet.Config, accuracy float64, inputSize int) (Trial, error) {
	if inputSize <= 0 {
		inputSize = latmeter.DefaultInputSize
	}
	layers, err := cfg.AppendLayersAt(m.layers[:0], inputSize)
	if err != nil {
		return Trial{}, err
	}
	m.layers = layers
	g := latmeter.LowerTo(m.kernels, layers)
	m.kernels = g.Kernels
	pred := m.pricer.Predict(g)
	return Trial{
		Config: cfg, Accuracy: accuracy,
		LatencyMS: pred.MeanMS, LatStdMS: pred.StdMS, PerDevice: pred.PerDevice,
		MemoryMB: float64(m.sizer.SizeBytesOf(cfg, layers)) / 1e6,
		EnergyMJ: pred.MeanEnergyMJ,
	}, nil
}

// Points exposes the trials as Pareto points in objective order
// (accuracy, latency, memory); point IDs index Trials.
func (r *Result) Points() []pareto.Point { return trialPoints(r.Trials) }

// NonDominated returns the Pareto-optimal trials (Table 4's rows), sorted
// by descending accuracy.
func (r *Result) NonDominated() []Trial {
	out := make([]Trial, len(r.FrontIdx))
	for i, idx := range r.FrontIdx {
		out[i] = r.Trials[idx]
	}
	return out
}

// sortFront orders FrontIdx by descending accuracy for stable presentation.
func sortFront(r *Result) {
	sort.Slice(r.FrontIdx, func(a, b int) bool {
		return r.Trials[r.FrontIdx[a]].Accuracy > r.Trials[r.FrontIdx[b]].Accuracy
	})
}

// ObjectiveRanges returns Table 3: (min, max) for accuracy, latency and
// memory over all valid trials.
func (r *Result) ObjectiveRanges() (mins, maxs []float64) {
	return pareto.Ranges(r.Points())
}

// Baselines evaluates the stock ResNet-18 on every input combination
// (Table 5): accuracy from the evaluator, latency and memory from the
// predictors.
func Baselines(combos []nas.InputCombo, eval nas.Evaluator, inputSize int) ([]Trial, error) {
	if combos == nil {
		combos = nas.PaperInputCombos()
	}
	var out []Trial
	for _, c := range combos {
		cfg := resnet.StockResNet18(c.Channels, c.Batch)
		acc, err := eval.Evaluate(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: baseline %dch b%d: %w", c.Channels, c.Batch, err)
		}
		trial, err := Measure(cfg, acc, inputSize)
		if err != nil {
			return nil, err
		}
		out = append(out, trial)
	}
	return out, nil
}

// EnergyObjectives extends the paper's three objectives with mean
// per-inference energy (minimized) — the fourth axis a battery-powered
// field deployment cares about.
var EnergyObjectives = []pareto.Direction{pareto.Maximize, pareto.Minimize, pareto.Minimize, pareto.Minimize}

// EnergyPoints exposes trials as 4-objective points
// (accuracy, latency, memory, energy).
func (r *Result) EnergyPoints() []pareto.Point {
	pts := make([]pareto.Point, len(r.Trials))
	for i, t := range r.Trials {
		pts[i] = pareto.Point{ID: i, Values: []float64{t.Accuracy, t.LatencyMS, t.MemoryMB, t.EnergyMJ}}
	}
	return pts
}

// NonDominatedWithEnergy returns the Pareto set over the four objectives.
// Adding an objective can only enlarge the front: every 3-objective front
// member remains non-dominated.
func (r *Result) NonDominatedWithEnergy() []Trial {
	idx := pareto.NonDominated(r.EnergyPoints(), EnergyObjectives)
	out := make([]Trial, len(idx))
	for i, id := range idx {
		out[i] = r.Trials[id]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Accuracy > out[b].Accuracy })
	return out
}

// DominatesBaseline reports, for each non-dominated trial, whether it beats
// the stock ResNet-18 baseline (same channels, batch) on latency and memory
// while staying within accDrop accuracy points — the paper's comparison
// claim in §4.
func DominatesBaseline(front []Trial, baselines []Trial, accDrop float64) []bool {
	base := make(map[[2]int]Trial, len(baselines))
	for _, b := range baselines {
		base[[2]int{b.Config.Channels, b.Config.Batch}] = b
	}
	out := make([]bool, len(front))
	for i, f := range front {
		b, ok := base[[2]int{f.Config.Channels, f.Config.Batch}]
		if !ok {
			continue
		}
		out[i] = f.LatencyMS < b.LatencyMS && f.MemoryMB < b.MemoryMB &&
			f.Accuracy >= b.Accuracy-accDrop
	}
	return out
}
