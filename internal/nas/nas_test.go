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

// TestGraphIndexNumbersGraphs: over the paper's 1,728 configurations,
// GraphIndex gives two of them the same number exactly when they have the
// same resnet.Config.Graph — 360 networks. In a space that lists a value
// twice, with combinations whose channel counts repeat out of order, equal
// numbers still mean equal graphs.
func TestGraphIndexNumbersGraphs(t *testing.T) {
	check := func(sp Space, combos []InputCombo, exact bool) int {
		t.Helper()
		configs := sp.EnumerateAll(combos)
		byNumber := map[int]resnet.Config{}
		byGraph := map[resnet.Config]int{}
		for id, cfg := range configs {
			n := sp.GraphIndex(combos, id)
			if n < 0 || n >= len(configs) {
				t.Fatalf("config %d (%+v): number %d outside [0, %d)", id, cfg, n, len(configs))
			}
			if g, ok := byNumber[n]; ok && g != cfg.Graph() {
				t.Fatalf("config %d (%+v): number %d is also graph %+v", id, cfg, n, g)
			}
			byNumber[n] = cfg.Graph()
			if m, ok := byGraph[cfg.Graph()]; exact && ok && m != n {
				t.Fatalf("config %d (%+v): numbered %d and %d", id, cfg, m, n)
			}
			byGraph[cfg.Graph()] = n
		}
		return len(byGraph)
	}
	if n := check(PaperSpace(), PaperInputCombos(), true); n != 360 {
		t.Fatalf("paper space: %d graphs, want 360", n)
	}
	odd := Space{
		KernelSizes: []int{3, 3, 7}, Strides: []int{2}, Paddings: []int{1, 2},
		PoolChoices: []int{1, 0}, KernelSizePools: []int{2, 3, 2}, StridePools: []int{2, 1},
		InitialFeatures: []int{8, 16}, NumClasses: 2,
	}
	check(odd, []InputCombo{{5, 16}, {7, 8}, {5, 8}, {7, 32}}, false)
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
	writeJournal(t, &buf, results)
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
	eval := TrainEvaluator{Data: dataset.New(x, labels), Opts: TrainOptions{Epochs: 1, Folds: 2, LR: 0.01, Seed: 1}}
	cfg := resnet.StockResNet18(7, 8)
	if _, err := eval.Evaluate(cfg); err == nil {
		t.Fatal("expected channel mismatch error")
	}
}

// TestTrainEvaluatorRejectsEmptyFold: with fewer samples per class than
// folds, stratified dealing leaves the last folds without a validation
// sample. That must fail the trial with an error naming the fold, not panic
// the sweep inside Subset.
func TestTrainEvaluatorRejectsEmptyFold(t *testing.T) {
	labels := []int{0, 1, 0, 1, 0, 1}
	eval := TrainEvaluator{
		Data: dataset.New(tensor.New(len(labels), 5, 32, 32), labels),
		Opts: TrainOptions{Epochs: 1, Folds: 5, LR: 0.02, Seed: 1},
	}
	cfg := resnet.Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 32, NumClasses: 2}
	_, err := eval.Evaluate(cfg)
	if err == nil || !strings.Contains(err.Error(), "fold 3 of 5") {
		t.Fatalf("Evaluate on 3+3 samples with 5 folds: %v, want an error naming fold 3", err)
	}
}

// TestTrainEvaluatorPin holds the exact float64 bits TrainEvaluator.Evaluate
// returns for three PaperSpace stems on a 26-chip corpus, captured before
// the SGD epoch was shared with nascli trainer. Any change to the training
// protocol or to its RNG draw order (weight init, then one Batches shuffle
// per epoch) moves at least one of them. The forwards
// behind the accuracies are only reproducible bit for bit under the kernel
// arithmetic they were captured with, which every 6×16 kernel shares.
func TestTrainEvaluatorPin(t *testing.T) {
	if k := tensor.GemmArithmetic(); k != "fused-6x16" {
		t.Skipf("pin captured under the fused-6x16 arithmetic, this process runs %s", tensor.GemmKernelName())
	}
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: 32, Scale: 400, Seed: 1})
	x, labels := corpus.Tensors(5)
	if len(labels) != 26 {
		t.Fatalf("corpus has %d chips, the pin was captured on 26", len(labels))
	}
	eval := TrainEvaluator{Data: dataset.New(x, labels), Opts: TrainOptions{
		Epochs: 1, Folds: 2, LR: 0.02, Momentum: 0.9, WeightDecay: 1e-4, Seed: 4,
	}}
	for _, pin := range []struct {
		cfg  resnet.Config
		bits uint64
	}{
		{resnet.Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
			PoolChoice: 0, InitialOutputFeature: 32, NumClasses: 2}, 0x404c924924924924},
		{resnet.Config{Channels: 5, Batch: 8, KernelSize: 7, Stride: 2, Padding: 3,
			PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 48, NumClasses: 2}, 0x4046eaaaaaaaaaab},
		{resnet.Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 1, Padding: 1,
			PoolChoice: 1, KernelSizePool: 2, StridePool: 2, InitialOutputFeature: 64, NumClasses: 2}, 0x4046eaaaaaaaaaab},
	} {
		acc, err := eval.Evaluate(pin.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(acc); got != pin.bits {
			t.Errorf("%s: accuracy %v (%#016x), pinned %v (%#016x)",
				pin.cfg.Key(), acc, got, math.Float64frombits(pin.bits), pin.bits)
		}
	}
}

// TestTrainerFollowsCosineSchedule: the shared epoch starts at opts.LR,
// ends at opts.LR/10, and reports a finite mean loss.
func TestTrainerFollowsCosineSchedule(t *testing.T) {
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: 16, Scale: 800, Seed: 2})
	x, labels := corpus.Tensors(5)
	data := dataset.New(x, labels)
	cfg := resnet.Config{Channels: 5, Batch: 4, KernelSize: 3, Stride: 1, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 4, NumClasses: 2}
	rng := tensor.NewRNG(1)
	model, err := resnet.New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	opts := TrainOptions{Epochs: 3, LR: 0.05, Momentum: 0.9}
	tr := NewTrainer(model, opts)
	want := []float64{0.05, 0.0275, 0.005}
	for e := range want {
		loss := tr.Epoch(e, data, rng)
		if math.IsNaN(loss) || math.IsInf(loss, 0) || loss <= 0 {
			t.Fatalf("epoch %d: mean loss %v", e, loss)
		}
		if math.Abs(tr.LR()-want[e]) > 1e-12 {
			t.Fatalf("epoch %d: lr %v, want %v", e, tr.LR(), want[e])
		}
	}
	if acc := Accuracy(model, data); acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v outside [0, 1]", acc)
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
	var buf bytes.Buffer
	writeJournal(t, &buf, journal)
	prior, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}

	remaining, completed := FilterCompleted(cfgs, prior)
	if len(completed) != 10 {
		t.Fatalf("completed %d, want 10", len(completed))
	}
	if len(remaining) != 20 {
		t.Fatalf("remaining %d, want 20", len(remaining))
	}

	evalCount := 0
	counting := countingEvaluator{inner: eval, count: &evalCount}
	fresh := Experiment(remaining, counting, ExperimentOptions{Workers: 1})
	resumed := MergeResults(cfgs, completed, fresh)
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
