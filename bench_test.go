// Benchmark harness: one benchmark per table and figure of the paper, plus
// ablations for the design choices called out in DESIGN.md. Paper-shaped
// quantities (objective ranges, front size, predictor accuracy) are emitted
// as custom benchmark metrics so `go test -bench` output doubles as the
// reproduction record consumed by EXPERIMENTS.md.
package drainnas

import (
	"fmt"
	"testing"

	"drainnas/internal/core"
	"drainnas/internal/dataset"
	"drainnas/internal/geodata"
	"drainnas/internal/latmeter"
	"drainnas/internal/nas"
	"drainnas/internal/nn"
	"drainnas/internal/pareto"
	"drainnas/internal/report"
	"drainnas/internal/resnet"
	"drainnas/internal/surrogate"
	"drainnas/internal/tensor"
)

func surrogateEval() nas.Evaluator {
	return nas.SurrogateEvaluator{Model: surrogate.Default()}
}

func fullSweep(b *testing.B) *core.Result {
	b.Helper()
	res, err := core.Run(core.Options{Evaluator: surrogateEval(), SimulateAttrition: true})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1_DatasetGeneration regenerates the Table 1 corpus
// (scaled 1/50) and reports its per-class balance.
func BenchmarkTable1_DatasetGeneration(b *testing.B) {
	var corpus *geodata.Corpus
	for i := 0; i < b.N; i++ {
		corpus = geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: 64, Scale: 50, Seed: 1})
	}
	counts := corpus.CountByRegion()
	b.ReportMetric(float64(len(corpus.Chips)), "chips")
	b.ReportMetric(float64(counts["Nebraska"][0]), "nebraska_true")
	b.ReportMetric(100*corpus.Balance(), "balance_pct")
	b.ReportMetric(float64(geodata.TotalSamples()), "paper_total_chips")
}

// BenchmarkFigure1_ModelBuild constructs the two Figure 1 input variants
// of the stock ResNet-18 and reports their parameter counts.
func BenchmarkFigure1_ModelBuild(b *testing.B) {
	rng := tensor.NewRNG(1)
	var m5, m7 *resnet.Model
	for i := 0; i < b.N; i++ {
		var err error
		if m5, err = resnet.New(resnet.StockResNet18(5, 8), rng); err != nil {
			b.Fatal(err)
		}
		if m7, err = resnet.New(resnet.StockResNet18(7, 8), rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m5.NumParams()), "params_5ch")
	b.ReportMetric(float64(m7.NumParams()), "params_7ch")
}

// BenchmarkFigure2_SearchSpace enumerates the full search space and
// reports the paper's counting invariants (288 per combo, 1,728 raw,
// 1,717 valid).
func BenchmarkFigure2_SearchSpace(b *testing.B) {
	space := nas.PaperSpace()
	combos := nas.PaperInputCombos()
	var raw []resnet.Config
	var valid []resnet.Config
	for i := 0; i < b.N; i++ {
		raw = space.EnumerateAll(combos)
		valid, _ = nas.ValidTrials(raw)
	}
	b.ReportMetric(float64(space.RawSize()), "per_combo")
	b.ReportMetric(float64(len(raw)), "raw_trials")
	b.ReportMetric(float64(len(valid)), "valid_trials")
	b.ReportMetric(float64(nas.PaperValidTrialCount), "paper_valid_trials")
}

// BenchmarkTable2_PredictorAccuracy validates the four latency predictors
// against their simulated devices and reports the within-±10% rates
// (paper: 99.00 / 99.10 / 99.00 / 83.40 %).
func BenchmarkTable2_PredictorAccuracy(b *testing.B) {
	var graphs []latmeter.Graph
	var keys []string
	for _, cfg := range nas.PaperSpace().Enumerate(nas.InputCombo{Channels: 5, Batch: 8}) {
		g, err := latmeter.Decompose(cfg, latmeter.DefaultInputSize)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, g)
		keys = append(keys, cfg.Key())
	}
	within := map[string]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range latmeter.Devices() {
			sim := latmeter.NewDeviceSimulator(d, 2023)
			within[d.Name] = sim.Validate(graphs, keys, 8000, 7).Within10Pct
		}
	}
	b.ReportMetric(100*within["cortexA76cpu"], "cortexA76cpu_pct")
	b.ReportMetric(100*within["adreno640gpu"], "adreno640gpu_pct")
	b.ReportMetric(100*within["adreno630gpu"], "adreno630gpu_pct")
	b.ReportMetric(100*within["myriadvpu"], "myriadvpu_pct")
}

// BenchmarkTable3_ObjectiveRanges runs the full 1,717-trial pipeline and
// reports the objective ranges (paper: acc 76.19-96.13 %, lat 8.13-249.56
// ms, mem 11.18-44.69 MB). Its ns/op is one whole surrogate sweep, the
// kernel trajectory's (make bench-kernels) end-to-end row for core.Run.
func BenchmarkTable3_ObjectiveRanges(b *testing.B) {
	var mins, maxs []float64
	for i := 0; i < b.N; i++ {
		res := fullSweep(b)
		mins, maxs = res.ObjectiveRanges()
	}
	b.ReportMetric(mins[0], "acc_min_pct")
	b.ReportMetric(maxs[0], "acc_max_pct")
	b.ReportMetric(mins[1], "lat_min_ms")
	b.ReportMetric(maxs[1], "lat_max_ms")
	b.ReportMetric(mins[2], "mem_min_mb")
	b.ReportMetric(maxs[2], "mem_max_mb")
}

// BenchmarkTable4_NonDominated reports the non-dominated set of the full
// sweep (paper: 5 solutions, all kernel 3, width 32, memory 11.18 MB).
func BenchmarkTable4_NonDominated(b *testing.B) {
	var front []core.Trial
	for i := 0; i < b.N; i++ {
		front = fullSweep(b).NonDominated()
	}
	b.ReportMetric(float64(len(front)), "front_size")
	b.ReportMetric(5, "paper_front_size")
	allK3, allW32 := 1.0, 1.0
	for _, f := range front {
		if f.Config.KernelSize != 3 {
			allK3 = 0
		}
		if f.Config.InitialOutputFeature != 32 {
			allW32 = 0
		}
	}
	b.ReportMetric(allK3, "all_kernel3")
	b.ReportMetric(allW32, "all_width32")
	b.ReportMetric(front[0].Accuracy, "best_acc_pct")
	b.ReportMetric(front[0].MemoryMB, "front_mem_mb")
}

// BenchmarkTable5_BaselineVariants evaluates the six stock ResNet-18
// variants (paper: acc 89.67-95.37 %, lat 31.91/32.46 ms, mem
// 44.71/44.73 MB).
func BenchmarkTable5_BaselineVariants(b *testing.B) {
	var baselines []core.Trial
	for i := 0; i < b.N; i++ {
		var err error
		baselines, err = core.Baselines(nil, surrogateEval(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(baselines[0].LatencyMS, "lat5ch_ms")
	b.ReportMetric(baselines[3].LatencyMS, "lat7ch_ms")
	b.ReportMetric(baselines[0].LatStdMS, "latstd5ch_ms")
	b.ReportMetric(baselines[0].MemoryMB, "mem5ch_mb")
	b.ReportMetric(baselines[3].MemoryMB, "mem7ch_mb")
	b.ReportMetric(baselines[4].Accuracy, "acc7ch_b16_pct")
}

// BenchmarkFigure3_ParetoFront times the Pareto front extraction over the
// full sweep's 1,717 points and reports the scatter's front share.
func BenchmarkFigure3_ParetoFront(b *testing.B) {
	res := fullSweep(b)
	pts := res.Points()
	var front []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front = pareto.NonDominated(pts, core.Objectives)
	}
	b.ReportMetric(float64(len(pts)), "points")
	b.ReportMetric(float64(len(front)), "front_size")
}

// BenchmarkFigure4_RadarData builds the radar-plot data of the
// non-dominated solutions.
func BenchmarkFigure4_RadarData(b *testing.B) {
	res := fullSweep(b)
	b.ResetTimer()
	var radars []report.Radar
	for i := 0; i < b.N; i++ {
		radars = report.Figure4Radars(res)
	}
	b.ReportMetric(float64(len(radars)), "radars")
	b.ReportMetric(float64(len(radars[0].Axes)), "axes")
}

// BenchmarkNASTrialThroughput measures the parallel experiment runner's
// trial throughput with the surrogate backend (§5's wall-time discussion:
// the paper's NNI runs took 9-29 hours on an A100).
func BenchmarkNASTrialThroughput(b *testing.B) {
	configs := nas.PaperSpace().EnumerateAll(nas.PaperInputCombos())
	eval := surrogateEval()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nas.Experiment(configs, eval, nas.ExperimentOptions{})
	}
	b.ReportMetric(float64(len(configs)), "trials")
}

// BenchmarkAblation_PrunedSearchSpace reruns the sweep with padding fixed
// to 1 (the paper's §5 pruning suggestion) and reports how much of the
// front survives.
func BenchmarkAblation_PrunedSearchSpace(b *testing.B) {
	space := nas.PaperSpace()
	space.Paddings = []int{1}
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Run(core.Options{Space: space, Evaluator: surrogateEval()})
		if err != nil {
			b.Fatal(err)
		}
	}
	full := fullSweep(b)
	b.ReportMetric(float64(res.RawTrials), "pruned_trials")
	b.ReportMetric(float64(full.RawTrials), "full_trials")
	b.ReportMetric(float64(len(res.FrontIdx)), "pruned_front")
	b.ReportMetric(res.NonDominated()[0].Accuracy, "pruned_best_acc")
	b.ReportMetric(full.NonDominated()[0].Accuracy, "full_best_acc")
}

// BenchmarkAblation_Strategies compares grid, random, and regularized
// evolution on best-accuracy-found per evaluation budget.
func BenchmarkAblation_Strategies(b *testing.B) {
	space := nas.PaperSpace()
	combo := nas.InputCombo{Channels: 7, Batch: 16}
	eval := surrogateEval()
	bestOf := func(cfgs []resnet.Config) float64 {
		res := nas.Experiment(cfgs, eval, nas.ExperimentOptions{})
		best, _ := nas.BestByAccuracy(res)
		return best.Accuracy
	}
	var gridBest, randBest, evoBest float64
	var randN, evoN int
	for i := 0; i < b.N; i++ {
		gridCfgs := nas.GridStrategy{}.Select(space, combo)
		gridBest = bestOf(gridCfgs)
		randCfgs := nas.RandomStrategy{N: 60, Seed: 9}.Select(space, combo)
		randN = len(randCfgs)
		randBest = bestOf(randCfgs)
		evo := nas.EvolutionStrategy{Population: 12, Cycles: 48, SampleSize: 3, Seed: 9, Evaluator: eval}
		evoCfgs := evo.Select(space, combo)
		evoN = len(evoCfgs)
		evoBest = bestOf(evoCfgs)
	}
	b.ReportMetric(gridBest, "grid288_best")
	b.ReportMetric(randBest, "random_best")
	b.ReportMetric(float64(randN), "random_trials")
	b.ReportMetric(evoBest, "evolution_best")
	b.ReportMetric(float64(evoN), "evolution_trials")
}

// BenchmarkAblation_NDSNaiveVsFast compares the naive O(n²) front
// extraction with the NSGA-II fast non-dominated sort on the sweep's
// points.
func BenchmarkAblation_NDSNaiveVsFast(b *testing.B) {
	res := fullSweep(b)
	pts := res.Points()
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pareto.NonDominated(pts, core.Objectives)
		}
	})
	b.Run("fast-fronts", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pareto.Fronts(pts, core.Objectives)
		}
	})
}

// BenchmarkAblation_ConvParallelism measures the training engine's
// convolution against its serial lower bound, the design choice behind the
// goroutine-parallel batch loop.
func BenchmarkAblation_ConvParallelism(b *testing.B) {
	rng := tensor.NewRNG(1)
	in := tensor.RandNormal(rng, 1, 16, 32, 32, 32)
	w := tensor.RandNormal(rng, 0.1, 64, 32, 3, 3)
	// Per conv: 2*C*KH*KW flops for each of N*OC*OH*OW outputs.
	convGF := func(n int) float64 { return 2 * float64(n) * 64 * 32 * 32 * 32 * 3 * 3 / 1e9 }
	b.Run("batch16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.Conv2D(in, w, nil, 1, 1)
		}
		b.ReportMetric(convGF(16)*float64(b.N)/b.Elapsed().Seconds(), "gflops")
	})
	single := tensor.RandNormal(rng, 1, 1, 32, 32, 32)
	b.Run("batch1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.Conv2D(single, w, nil, 1, 1)
		}
		b.ReportMetric(convGF(1)*float64(b.N)/b.Elapsed().Seconds(), "gflops")
	})
}

// BenchmarkTrainingStep measures one full forward+backward+update step of
// the paper's best non-dominated architecture on a synthetic batch — the
// unit of work the NAS training backend repeats.
func BenchmarkTrainingStep(b *testing.B) {
	benchTrainingStep(b, resnet.Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 32, NumClasses: 2})
}

// BenchmarkTrainingStepPooled is the same step through the stem of the
// nas_search candidates with a pool: 3×3/2 conv, 3×3/2 max pool, width 32,
// batch 16, so the pool's forward and backward are in the step.
func BenchmarkTrainingStepPooled(b *testing.B) {
	benchTrainingStep(b, resnet.Config{Channels: 5, Batch: 16, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 32, NumClasses: 2})
}

// benchTrainingStep times training steps of cfg on one synthetic batch of
// 32×32 chips with alternating labels.
func benchTrainingStep(b *testing.B, cfg resnet.Config) {
	rng := tensor.NewRNG(1)
	model, err := resnet.New(cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.RandNormal(rng, 1, cfg.Batch, cfg.Channels, 32, 32)
	labels := make([]int, cfg.Batch)
	for i := range labels {
		labels[i] = i % 2
	}
	opt := nn.NewSGD(model.Params(), 0.01, 0.9, 1e-4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := model.Forward(x, true)
		_, grad := nn.CrossEntropy(logits, labels)
		nn.ZeroGrad(model.Params())
		model.Backward(grad)
		opt.Step()
	}
	b.ReportMetric(float64(model.NumParams()), "params")
}

// BenchmarkLatencyPrediction measures single-model latency prediction cost
// (all four devices), the inner operation of the Table 3/4 measurement
// phase.
func BenchmarkLatencyPrediction(b *testing.B) {
	cfg := resnet.StockResNet18(5, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := latmeter.Predict(cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepMeasure is the cost of one measurement: one core.Measure
// per op, cycling through the enumerated PaperSpace so every stem, pool
// and width is in the mean. A sweep pays it once per distinct inference
// graph (360 for PaperSpace), not once per trial.
func BenchmarkSweepMeasure(b *testing.B) {
	configs := nas.PaperSpace().EnumerateAll(nas.PaperInputCombos())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Measure(configs[i%len(configs)], 90, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusTraining measures a one-epoch real-training pass over a
// miniature corpus — the cost unit behind the paper's 9h20m / 29h3m NNI
// wall times (§5), at our reduced scale.
func BenchmarkCorpusTraining(b *testing.B) {
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: 32, Scale: 400, Seed: 3})
	x, labels := corpus.Tensors(5)
	data := dataset.New(x, labels)
	stats := data.ComputeStats()
	data.Normalize(stats)
	cfg := resnet.Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 16, NumClasses: 2}
	rng := tensor.NewRNG(2)
	model, err := resnet.New(cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	opt := nn.NewSGD(model.Params(), 0.02, 0.9, 1e-4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, idxs := range data.Batches(cfg.Batch, rng) {
			bx, by := data.Batch(idxs)
			logits := model.Forward(bx, true)
			_, grad := nn.CrossEntropy(logits, by)
			nn.ZeroGrad(model.Params())
			model.Backward(grad)
			opt.Step()
		}
	}
	b.ReportMetric(float64(data.Len()), "samples_per_epoch")
}

// BenchmarkHypervolume measures the WFG hypervolume of the full sweep's
// Pareto front, the scalar front-quality indicator, and reports it.
func BenchmarkHypervolume(b *testing.B) {
	res := fullSweep(b)
	pts := res.Points()
	ref := pareto.ReferenceFromWorst(pts, core.Objectives, 0.05)
	var frontPts []pareto.Point
	for _, i := range res.FrontIdx {
		frontPts = append(frontPts, pts[i])
	}
	var hv float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hv = pareto.Hypervolume(frontPts, core.Objectives, ref)
	}
	b.ReportMetric(hv, "front_hv")
	b.ReportMetric(float64(len(frontPts)), "front_size")
}

// BenchmarkAblation_SuccessiveHalving compares grid search with
// multi-fidelity successive halving on found-accuracy per budget.
func BenchmarkAblation_SuccessiveHalving(b *testing.B) {
	space := nas.PaperSpace()
	combo := nas.InputCombo{Channels: 7, Batch: 16}
	configs := space.Enumerate(combo)
	eval := nas.SurrogateEvaluator{Model: surrogate.Default()}
	var sh nas.SHResult
	for i := 0; i < b.N; i++ {
		var err error
		sh, err = nas.SuccessiveHalving(configs, eval, nas.SHOptions{Eta: 2, MinBudget: 0.25})
		if err != nil {
			b.Fatal(err)
		}
	}
	grid := nas.Experiment(configs, eval, nas.ExperimentOptions{})
	gridBest, _ := nas.BestByAccuracy(grid)
	b.ReportMetric(sh.TotalBudget, "sh_budget_fullevals")
	b.ReportMetric(float64(len(configs)), "grid_budget_fullevals")
	b.ReportMetric(sh.Survivors[0].Accuracy, "sh_best")
	b.ReportMetric(gridBest.Accuracy, "grid_best")
}

// BenchmarkTileSegmentation measures the region-tile workflow: synthesize
// a watershed raster (terrain, channels, roads, crossings and the rendered
// bands) and segment chips — the paper's data-preparation pipeline.
func BenchmarkTileSegmentation(b *testing.B) {
	var nPos, nNeg int
	for i := 0; i < b.N; i++ {
		rng := tensor.NewRNG(uint64(i) + 1)
		tile := geodata.GenerateTile(geodata.StudyRegions[0], 192, 3, 2, rng)
		pos, neg := tile.ExtractChips(48, 8, rng)
		nPos, nNeg = len(pos), len(neg)
	}
	b.ReportMetric(float64(nPos), "positives")
	b.ReportMetric(float64(nNeg), "negatives")
}

// BenchmarkWatershedSynthesis measures what a scan's first tile waits on:
// geodata.GenerateWatershed for the scan benchmark's first job (Nebraska,
// 640², seed 1), with allocations, since the terrain and band rasters
// dominate a scan's set-up memory.
func BenchmarkWatershedSynthesis(b *testing.B) {
	region, _ := geodata.RegionByName("Nebraska")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		geodata.GenerateWatershed(region, 640, 1)
	}
}

// BenchmarkCorpusSynthesis measures GenerateCorpus at the nas_search
// benchmark's corpus (32-px chips, Table 1 ÷ 400: 26 chips, seed 1) and at
// the paper's 100-px chips over the same counts, with allocations: chips
// take the same synthesis paths a watershed does.
func BenchmarkCorpusSynthesis(b *testing.B) {
	for _, chip := range []int{32, 100} {
		b.Run(fmt.Sprintf("chip%d", chip), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: chip, Scale: 400, Seed: 1})
			}
		})
	}
}
