package drainnas

import (
	"bytes"
	"math"
	"testing"

	"drainnas/internal/core"
	"drainnas/internal/dataset"
	"drainnas/internal/geodata"
	"drainnas/internal/infer"
	"drainnas/internal/latmeter"
	"drainnas/internal/metrics"
	"drainnas/internal/nas"
	"drainnas/internal/nn"
	"drainnas/internal/onnxsize"
	"drainnas/internal/pareto"
	"drainnas/internal/resnet"
	"drainnas/internal/surrogate"
	"drainnas/internal/tensor"
)

// TestEndToEndTrainingPipeline runs the complete system with the real
// training backend at miniature scale: synthesize a corpus, search a tiny
// space with k-fold training, attach latency and memory objectives, and
// extract the Pareto front. This is the integration path the paper's whole
// methodology describes, exercised for real.
func TestEndToEndTrainingPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("real training is slow")
	}
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: 32, Scale: 150, Seed: 5})
	x, labels := corpus.Tensors(5)
	data := dataset.New(x, labels)

	eval := nas.TrainEvaluator{Data: data, Opts: nas.TrainOptions{
		Epochs: 3, Folds: 2, LR: 0.02, Momentum: 0.9, WeightDecay: 1e-4, Seed: 3,
	}}
	space := nas.Space{
		KernelSizes: []int{3, 7}, Strides: []int{2}, Paddings: []int{1},
		PoolChoices: []int{1}, KernelSizePools: []int{3}, StridePools: []int{2},
		InitialFeatures: []int{16}, NumClasses: 2,
	}
	stats := &metrics.SweepStats{}
	configs := space.Enumerate(nas.InputCombo{Channels: 5, Batch: 16})
	if len(configs) != 2 {
		t.Fatalf("tiny space size %d", len(configs))
	}
	stats.Begin(len(configs), 0)
	results := nas.Experiment(configs, eval, nas.ExperimentOptions{Workers: 2, Stats: stats})

	// Plumbing assertions per trial; the learning assertion applies to the
	// best trial only (the 7x7 stem underfits badly at this tiny budget,
	// which is itself the paper's point about lean stems).
	best, ok := nas.BestByAccuracy(results)
	if !ok || best.Accuracy < 60 {
		t.Errorf("best trained config only reached %.1f%%", best.Accuracy)
	}
	var trials []core.Trial
	for _, r := range nas.Succeeded(results) {
		trial, err := core.Measure(r.Config, r.Accuracy, 0)
		if err != nil {
			t.Fatal(err)
		}
		if trial.LatencyMS <= 0 || trial.MemoryMB <= 0 {
			t.Fatalf("objectives missing: %+v", trial)
		}
		trials = append(trials, trial)
	}
	if len(trials) != 2 {
		t.Fatalf("trials %d", len(trials))
	}
	pts := make([]pareto.Point, len(trials))
	for i, tr := range trials {
		pts[i] = pareto.Point{ID: i, Values: []float64{tr.Accuracy, tr.LatencyMS, tr.MemoryMB}}
	}
	if front := pareto.NonDominated(pts, core.Objectives); len(front) == 0 {
		t.Fatal("empty front")
	}
	// The sweep's trial-time distribution saw both trials.
	if snap := stats.Snapshot(); snap.Trials.Count != 2 || snap.Trials.Max <= 0 {
		t.Fatalf("sweep trial timings %+v", snap.Trials)
	}
}

// TestTrainedModelDeploymentPath trains one model briefly, exports it
// through the ONNX-like container, checks the file size matches the memory
// objective, and loads the container as the compiled plan every binary
// serves, which must reproduce the training model's eval forward — the full
// deployment story.
func TestTrainedModelDeploymentPath(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: 32, Scale: 400, Seed: 6})
	x, labels := corpus.Tensors(5)
	data := dataset.New(x, labels)
	stats := data.ComputeStats()
	data.Normalize(stats)

	cfg := resnet.Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 16, NumClasses: 2}
	rng := tensor.NewRNG(7)
	model, err := resnet.New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	trainBatches(t, model, data, cfg.Batch, 8, rng)

	var buf bytes.Buffer
	n, err := onnxsize.Export(model, &buf)
	if err != nil {
		t.Fatal(err)
	}
	sz, _ := onnxsize.SizeBytes(cfg)
	if n != sz {
		t.Fatalf("export %d bytes, SizeBytes %d", n, sz)
	}
	plan, err := infer.LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	xb, _ := data.Batch([]int{0, 1, 2})
	want := model.Forward(xb, false)
	got, err := plan.Forward(xb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data() {
		if math.Abs(float64(got.Data()[i]-want.Data()[i])) > 1e-4*(1+math.Abs(float64(want.Data()[i]))) {
			t.Fatalf("plan logit %d: %v vs %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

// TestSurrogateAgreesWithLatencyOrdering cross-checks the two measurement
// axes: the latency predictor and the memory measure must order the
// paper's lean vs stock models the same way on every device.
func TestSurrogateAgreesWithLatencyOrdering(t *testing.T) {
	lean := resnet.Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 32, NumClasses: 2}
	stock := resnet.StockResNet18(5, 8)
	pLean, err := latmeter.Predict(lean, 0)
	if err != nil {
		t.Fatal(err)
	}
	pStock, _ := latmeter.Predict(stock, 0)
	for i, d := range latmeter.Devices() {
		if pLean.PerDevice[i] >= pStock.PerDevice[i] {
			t.Fatalf("%s: lean %.2f not faster than stock %.2f",
				d.Name, pLean.PerDevice[i], pStock.PerDevice[i])
		}
	}
	mLean, _ := onnxsize.SizeMB(lean)
	mStock, _ := onnxsize.SizeMB(stock)
	if mLean >= mStock {
		t.Fatal("lean model not smaller")
	}
	sLean := surrogate.Default().Mean(lean)
	sStock := surrogate.Default().Mean(stock)
	if sLean <= sStock-2 {
		t.Fatalf("surrogate puts lean far below stock: %.2f vs %.2f", sLean, sStock)
	}
}

// trainBatches runs a few SGD steps to move weights and BN stats.
func trainBatches(t *testing.T, m *resnet.Model, d *dataset.Dataset, batch, steps int, rng *tensor.RNG) {
	t.Helper()
	opt := nn.NewSGD(m.Params(), 0.02, 0.9, 1e-4)
	count := 0
	for _, idxs := range d.Batches(batch, rng) {
		if count >= steps {
			break
		}
		x, labels := d.Batch(idxs)
		logits := m.Forward(x, true)
		_, grad := nn.CrossEntropy(logits, labels)
		nn.ZeroGrad(m.Params())
		m.Backward(grad)
		opt.Step()
		count++
	}
}
