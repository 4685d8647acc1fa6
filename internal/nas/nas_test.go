package nas

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"drainnas/internal/dataset"
	"drainnas/internal/geodata"
	"drainnas/internal/nn"
	"drainnas/internal/parallel"
	"drainnas/internal/resnet"
	"drainnas/internal/surrogate"
	"drainnas/internal/tensor"
)

func TestPaperSpaceCounts(t *testing.T) {
	sp := PaperSpace()
	if sp.RawSize() != 288 {
		t.Fatalf("raw size %d, want 288 (paper §3.2)", sp.RawSize())
	}
	combos := PaperInputCombos()
	if len(combos) != 6 {
		t.Fatalf("%d input combos, want 6", len(combos))
	}
	all := sp.EnumerateAll(combos)
	if len(all) != 1728 {
		t.Fatalf("raw trials %d, want 1728", len(all))
	}
	for _, c := range all {
		if err := c.Validate(); err != nil {
			t.Fatalf("invalid enumerated config: %v", err)
		}
	}
}

func TestAttritionReproduces1717(t *testing.T) {
	sp := PaperSpace()
	all := sp.EnumerateAll(PaperInputCombos())
	valid, failed := ValidTrials(all)
	if len(valid) != PaperValidTrialCount {
		t.Fatalf("valid trials %d, want %d", len(valid), PaperValidTrialCount)
	}
	if len(failed) != 11 {
		t.Fatalf("failed trials %d, want 11", len(failed))
	}
	// Determinism.
	valid2, _ := ValidTrials(all)
	if len(valid2) != len(valid) {
		t.Fatal("attrition not deterministic")
	}
}

func TestUniqueConfigsCollapsesNoPool(t *testing.T) {
	sp := PaperSpace()
	one := sp.Enumerate(InputCombo{Channels: 5, Batch: 8})
	uniq := UniqueConfigs(one)
	// Per combo: pool configs 2*2*3*2*2*3=144 distinct; no-pool collapse
	// 4 pool-axis variants into one → 36 distinct. Total 180.
	if len(uniq) != 180 {
		t.Fatalf("unique configs %d, want 180", len(uniq))
	}
}

func TestEnumerateDeterministicOrder(t *testing.T) {
	sp := PaperSpace()
	a := sp.Enumerate(InputCombo{5, 8})
	b := sp.Enumerate(InputCombo{5, 8})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("enumeration order not deterministic")
		}
	}
}

func TestDescribeMentionsAxes(t *testing.T) {
	d := PaperSpace().Describe()
	for _, want := range []string{"kernel_size", "stride", "padding", "pool_choice", "initial_output_feature", "288"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestSurrogateExperimentFullSweep(t *testing.T) {
	sp := PaperSpace()
	all := sp.EnumerateAll(PaperInputCombos())
	eval := SurrogateEvaluator{Model: surrogate.Default()}
	results := Experiment(all, eval, ExperimentOptions{SimulateAttrition: true})
	if len(results) != 1728 {
		t.Fatalf("results %d", len(results))
	}
	ok := Succeeded(results)
	if len(ok) != PaperValidTrialCount {
		t.Fatalf("valid outcomes %d, want %d", len(ok), PaperValidTrialCount)
	}
	best, found := BestByAccuracy(results)
	if !found || best.Accuracy < 94 {
		t.Fatalf("best accuracy %.2f", best.Accuracy)
	}
	// The best model should use a 3×3 kernel, mirroring the paper's Table 4.
	if best.Config.KernelSize != 3 {
		t.Fatalf("best config kernel %d, paper's non-dominated all use 3", best.Config.KernelSize)
	}
}

func TestExperimentResultsInInputOrder(t *testing.T) {
	sp := PaperSpace()
	cfgs := sp.Enumerate(InputCombo{5, 8})[:20]
	eval := SurrogateEvaluator{Model: surrogate.Default()}
	results := Experiment(cfgs, eval, ExperimentOptions{Workers: 4})
	for i, r := range results {
		if r.ID != i {
			t.Fatalf("result %d has ID %d", i, r.ID)
		}
		if r.Config != cfgs[i] {
			t.Fatalf("result %d config mismatch", i)
		}
	}
}

func TestExperimentProgressCallback(t *testing.T) {
	cfgs := PaperSpace().Enumerate(InputCombo{5, 8})[:10]
	eval := SurrogateEvaluator{Model: surrogate.Default()}
	calls := 0
	Experiment(cfgs, eval, ExperimentOptions{Workers: 1, Progress: func(done, total int) {
		calls++
		if total != 10 {
			t.Fatalf("total %d", total)
		}
	}})
	if calls != 10 {
		t.Fatalf("progress called %d times", calls)
	}
}

func TestExperimentRecordsEvaluatorErrors(t *testing.T) {
	bad := resnet.Config{} // invalid
	eval := SurrogateEvaluator{Model: surrogate.Default()}
	results := Experiment([]resnet.Config{bad}, eval, ExperimentOptions{})
	if results[0].Status != TrialFailed || results[0].Err == "" {
		t.Fatalf("invalid config should fail: %+v", results[0])
	}
}

func TestJournalRoundTrip(t *testing.T) {
	cfgs := PaperSpace().Enumerate(InputCombo{7, 16})[:5]
	eval := SurrogateEvaluator{Model: surrogate.Default()}
	results := Experiment(cfgs, eval, ExperimentOptions{})
	var buf bytes.Buffer
	if err := WriteJournal(&buf, results); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(results) {
		t.Fatalf("round trip %d vs %d", len(back), len(results))
	}
	for i := range back {
		if back[i].Accuracy != results[i].Accuracy || back[i].Config != results[i].Config {
			t.Fatalf("trial %d mismatch", i)
		}
	}
}

func TestRandomStrategySamplesDistinct(t *testing.T) {
	s := RandomStrategy{N: 50, Seed: 1}
	cfgs := s.Select(PaperSpace(), InputCombo{5, 8})
	if len(cfgs) != 50 {
		t.Fatalf("sampled %d", len(cfgs))
	}
	seen := map[resnet.Config]bool{}
	for _, c := range cfgs {
		if seen[c] {
			t.Fatal("duplicate raw sample")
		}
		seen[c] = true
	}
	// Oversampling returns the whole space.
	s2 := RandomStrategy{N: 10_000, Seed: 1}
	if got := len(s2.Select(PaperSpace(), InputCombo{5, 8})); got != 288 {
		t.Fatalf("oversample returned %d", got)
	}
}

func TestEvolutionStrategyFindsGoodConfigs(t *testing.T) {
	eval := SurrogateEvaluator{Model: surrogate.Default()}
	evo := EvolutionStrategy{Population: 12, Cycles: 120, SampleSize: 3, Seed: 5, Evaluator: eval}
	combo := InputCombo{7, 16}
	visited := evo.Select(PaperSpace(), combo)
	if len(visited) < 20 {
		t.Fatalf("evolution visited only %d configs", len(visited))
	}
	// Evolution must reach an accuracy close to the grid optimum while
	// visiting far fewer configurations than the grid.
	if len(visited) >= 288 {
		t.Fatalf("evolution visited %d — no better than grid", len(visited))
	}
	results := Experiment(visited, eval, ExperimentOptions{})
	best, _ := BestByAccuracy(results)
	gridResults := Experiment(PaperSpace().Enumerate(combo), eval, ExperimentOptions{})
	gridBest, _ := BestByAccuracy(gridResults)
	if best.Accuracy < gridBest.Accuracy-1.0 {
		t.Fatalf("evolution best %.2f vs grid best %.2f", best.Accuracy, gridBest.Accuracy)
	}
}

func TestEvolutionConfigsStayInSpace(t *testing.T) {
	f := func(seed uint64) bool {
		eval := SurrogateEvaluator{Model: surrogate.Default()}
		evo := EvolutionStrategy{Population: 6, Cycles: 20, Seed: seed, Evaluator: eval}
		sp := PaperSpace()
		in := func(v int, vals []int) bool {
			for _, x := range vals {
				if x == v {
					return true
				}
			}
			return false
		}
		for _, c := range evo.Select(sp, InputCombo{5, 8}) {
			if !in(c.KernelSize, sp.KernelSizes) || !in(c.Stride, sp.Strides) ||
				!in(c.Padding, sp.Paddings) || !in(c.InitialOutputFeature, sp.InitialFeatures) {
				return false
			}
			if c.Channels != 5 || c.Batch != 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestTopK(t *testing.T) {
	results := []TrialResult{
		{Status: TrialSucceeded, Accuracy: 90},
		{Status: TrialFailed, Accuracy: 0},
		{Status: TrialSucceeded, Accuracy: 95},
		{Status: TrialSucceeded, Accuracy: 92},
	}
	top := TopK(results, 2)
	if len(top) != 2 || top[0].Accuracy != 95 || top[1].Accuracy != 92 {
		t.Fatalf("TopK: %+v", top)
	}
	if got := TopK(results, 10); len(got) != 3 {
		t.Fatalf("TopK overflow: %d", len(got))
	}
}

func TestTrainEvaluatorLearnsRealCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("real training is slow")
	}
	// A miniature corpus at small chip size; the evaluator must clear
	// chance level by a solid margin.
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: 32, Scale: 80, Seed: 11})
	x, labels := corpus.Tensors(5)
	data := dataset.New(x, labels)
	eval := TrainEvaluator{Data: data, Opts: TrainOptions{
		Epochs: 3, Folds: 3, LR: 0.02, Momentum: 0.9, WeightDecay: 1e-4, Seed: 7,
	}}
	cfg := resnet.Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 16, NumClasses: 2}
	acc, err := eval.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 65 {
		t.Fatalf("train evaluator accuracy %.1f%%, want > 65%% (chance = 50%%)", acc)
	}
}

func TestTrainEvaluatorRejectsChannelMismatch(t *testing.T) {
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: 16, Scale: 800, Seed: 1})
	x, labels := corpus.Tensors(5)
	eval := TrainEvaluator{Data: dataset.New(x, labels), Opts: DefaultTrainOptions()}
	cfg := resnet.StockResNet18(7, 8)
	if _, err := eval.Evaluate(cfg); err == nil {
		t.Fatal("expected channel mismatch error")
	}
}

func TestResumeExperimentReusesJournal(t *testing.T) {
	cfgs := PaperSpace().Enumerate(InputCombo{5, 8})[:30]
	eval := SurrogateEvaluator{Model: surrogate.Default()}
	full := Experiment(cfgs, eval, ExperimentOptions{})

	// Simulate an interruption: keep the first 12 outcomes and mark two of
	// them failed (failures must re-run).
	journal := append([]TrialResult{}, full[:12]...)
	journal[3].Status = TrialFailed
	journal[7].Status = TrialFailed

	remaining, completed := FilterCompleted(cfgs, journal)
	if len(completed) != 10 {
		t.Fatalf("completed %d, want 10", len(completed))
	}
	if len(remaining) != 20 {
		t.Fatalf("remaining %d, want 20", len(remaining))
	}

	evalCount := 0
	counting := countingEvaluator{inner: eval, count: &evalCount}
	resumed := ResumeExperiment(cfgs, journal, counting, ExperimentOptions{Workers: 1})
	if evalCount != 20 {
		t.Fatalf("resume evaluated %d trials, want 20", evalCount)
	}
	if len(resumed) != len(full) {
		t.Fatalf("resumed %d results", len(resumed))
	}
	for i := range resumed {
		if resumed[i].ID != i || resumed[i].Config != cfgs[i] {
			t.Fatalf("result %d out of order", i)
		}
		if resumed[i].Status != TrialSucceeded {
			t.Fatalf("result %d not succeeded", i)
		}
		if resumed[i].Accuracy != full[i].Accuracy {
			t.Fatalf("result %d accuracy %v vs %v", i, resumed[i].Accuracy, full[i].Accuracy)
		}
	}
}

type countingEvaluator struct {
	inner Evaluator
	count *int
}

func (c countingEvaluator) Evaluate(cfg resnet.Config) (float64, error) {
	*c.count++
	return c.inner.Evaluate(cfg)
}

func TestParallelFoldsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("real training is slow")
	}
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: 24, Scale: 300, Seed: 13})
	x, labels := corpus.Tensors(5)
	data := dataset.New(x, labels)
	cfg := resnet.Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 8, NumClasses: 2}
	serial := TrainEvaluator{Data: data, Opts: TrainOptions{Epochs: 1, Folds: 2, LR: 0.02, Momentum: 0.9, Seed: 5}}
	par := serial
	par.Opts.ParallelFolds = true
	a, err := serial.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fold seeds are positional, so parallel and serial runs are identical.
	if a != b {
		t.Fatalf("parallel folds diverged: %.4f vs %.4f", a, b)
	}
}

// TestTrainedModelIndependentOfWorkers: a trial's result must not depend on
// the core count of the box that ran it. Three SGD steps leave every
// parameter with the same bits under one and under two kernel workers (the
// forward has been worker-invariant since the panel driver; the backward
// summed weight gradients per worker until it moved there too), and so the
// evaluator's cross-validated accuracy is the same number.
func TestTrainedModelIndependentOfWorkers(t *testing.T) {
	prev := parallel.DefaultWorkers
	defer func() { parallel.DefaultWorkers = prev }()
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: 32, Scale: 300, Seed: 13})
	x, labels := corpus.Tensors(5)
	data := dataset.New(x, labels)
	cfg := resnet.Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 32, NumClasses: 2}

	train := func(workers int) *resnet.Model {
		parallel.DefaultWorkers = workers
		rng := tensor.NewRNG(3)
		model, err := resnet.New(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		opt := nn.NewSGD(model.Params(), 0.02, 0.9, 1e-4)
		for _, idxs := range data.Batches(cfg.Batch, rng)[:3] {
			bx, by := data.Batch(idxs)
			_, grad := nn.CrossEntropy(model.Forward(bx, true), by)
			nn.ZeroGrad(model.Params())
			model.Backward(grad)
			opt.Step()
		}
		return model
	}
	one, two := train(1).Params(), train(2).Params()
	for i, p := range one {
		for j, v := range p.Data.Data() {
			if w := two[i].Data.Data()[j]; math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s[%d] = %v under one worker, %v under two", p.Name, j, v, w)
			}
		}
	}

	eval := TrainEvaluator{Data: data, Opts: TrainOptions{Epochs: 1, Folds: 2, LR: 0.02, Momentum: 0.9, Seed: 5}}
	var acc [2]float64
	for i := range acc {
		parallel.DefaultWorkers = i + 1
		var err error
		if acc[i], err = eval.Evaluate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if acc[0] != acc[1] {
		t.Fatalf("accuracy %v under one worker, %v under two", acc[0], acc[1])
	}
}

func TestEstimateFullScale(t *testing.T) {
	// 2 s/trial at 1/400 of the paper's per-trial cost, 288 trials, one
	// worker → 2*400*288/3600 = 64 hours; the paper's 9h20m-29h A100 runs
	// sit within an order of magnitude of CPU-extrapolated figures.
	h := EstimateFullScale(2, 400, 288, 1)
	if h < 63.9 || h > 64.1 {
		t.Fatalf("estimate %.2f h, want 64", h)
	}
	// Concurrency divides linearly; defaults guard degenerate inputs.
	if EstimateFullScale(2, 400, 288, 4) != h/4 {
		t.Fatal("concurrency scaling broken")
	}
	if EstimateFullScale(1, 1, 0, 0) <= 0 {
		t.Fatal("defaults broken")
	}
}
