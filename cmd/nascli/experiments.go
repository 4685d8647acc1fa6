package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"time"

	"drainnas/internal/core"
	"drainnas/internal/dataset"
	"drainnas/internal/geodata"
	"drainnas/internal/latmeter"
	"drainnas/internal/nas"
	"drainnas/internal/pareto"
	"drainnas/internal/report"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// latpred predicts a configuration's inference latency on the four
// nn-Meter-style device predictors, optionally with a per-kernel breakdown
// (-breakdown <device>) or a predictor-accuracy validation reproducing
// Table 2 (-validate).
func latpred(args []string) {
	fs := flag.NewFlagSet("latpred", flag.ExitOnError)
	cfg := stemFlags(fs, resnet.Config{
		Channels: 5, Batch: 1, KernelSize: 7, Stride: 2, Padding: 3,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 64, NumClasses: 2,
	}, "input channels")
	var (
		inputSize = fs.Int("input", latmeter.DefaultInputSize, "input image side")
		breakdown = fs.String("breakdown", "", "print per-kernel latency for this device")
		validate  = fs.Bool("validate", false, "validate predictors against the device simulator (Table 2)")
		samples   = fs.Int("samples", 20000, "validation sample count")
	)
	fs.Parse(args)

	if *validate {
		runValidation(*inputSize, *samples)
		return
	}

	g, err := latmeter.Decompose(*cfg, *inputSize)
	if err != nil {
		log.Fatal(err)
	}
	pred := latmeter.PredictGraph(g)
	fmt.Printf("config: %s  (input %dx%d, %d kernels, %.2f GFLOPs, %.1f MB traffic)\n\n",
		cfg.Key(), *inputSize, *inputSize, len(g.Kernels),
		g.TotalFLOPs()/1e9, g.TotalBytes()/1e6)
	for _, d := range latmeter.Devices() {
		fmt.Printf("  %-14s %8.2f ms   (%s, %s)\n", d.Name, pred.PerDevice[d.Name], d.HW, d.Framework)
	}
	fmt.Printf("\n  mean %.2f ms   std %.2f ms\n", pred.MeanMS, pred.StdMS)

	if *breakdown != "" {
		names, lats, err := latmeter.Breakdown(*cfg, *inputSize, *breakdown)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nper-kernel breakdown on %s:\n", *breakdown)
		for i, n := range names {
			fmt.Printf("  %-44s %8.3f ms\n", n, lats[i])
		}
	}
}

// runValidation reproduces Table 2: each predictor versus its simulated
// physical device over a sample of search-space models.
func runValidation(inputSize, samples int) {
	// Validate over the full per-combo search space so the accuracy figure
	// averages over many per-model bias draws, like nn-Meter's published
	// corpus-level numbers.
	var graphs []latmeter.Graph
	var keys []string
	for _, cfg := range nas.PaperSpace().Enumerate(nas.InputCombo{Channels: 5, Batch: 1}) {
		g, err := latmeter.Decompose(cfg, inputSize)
		if err != nil {
			log.Fatal(err)
		}
		graphs = append(graphs, g)
		keys = append(keys, cfg.Key())
	}
	fmt.Printf("validating 4 predictors over %d models x %d measurements\n\n", len(graphs), samples)
	devWidth := 0
	for _, d := range latmeter.Devices() {
		devWidth = max(devWidth, len(d.HW))
	}
	fmt.Printf("%-14s %-*s %-16s %s\n", "Hardware name", devWidth, "Device", "Framework", "±10% Accuracy")
	for _, d := range latmeter.Devices() {
		res := latmeter.NewDeviceSimulator(d, 2023).Validate(graphs, keys, samples, 7)
		fmt.Printf("%-14s %-*s %-16s %.2f%%\n", d.Name, devWidth, d.HW, d.Framework, 100*res.Within10Pct)
	}
	fmt.Println("\npaper Table 2: 99.00% / 99.10% / 99.00% / 83.40%")
}

// paretoviz runs the full pipeline (1,717 valid trials with the surrogate
// backend) and regenerates the paper's result tables and figures: Table 3
// (objective ranges), Table 4 (non-dominated solutions), Table 5 (stock
// ResNet-18 variants), Figure 3 (scatter + front) and Figure 4 (radar
// data). Individual artifacts can be selected with flags; the default
// prints everything.
func paretoviz(args []string) {
	fs := flag.NewFlagSet("paretoviz", flag.ExitOnError)
	var (
		table3  = fs.Bool("table3", false, "print only Table 3")
		table4  = fs.Bool("table4", false, "print only Table 4")
		table5  = fs.Bool("table5", false, "print only Table 5")
		figure3 = fs.Bool("figure3", false, "print only Figure 3 (ASCII scatter)")
		figure4 = fs.Bool("figure4", false, "print only Figure 4 (radar data)")
		quality = fs.Bool("quality", false, "print only front-quality indicators (hypervolume, knee point, energy front)")
		csvPath = fs.String("csv", "", "also write Figure 3 data as CSV to this file")
		workers = fs.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS)")
	)
	fs.Parse(args)
	all := !(*table3 || *table4 || *table5 || *figure3 || *figure4 || *quality)

	res, err := core.Run(core.Options{
		Evaluator:         paperSurrogate,
		Workers:           *workers,
		SimulateAttrition: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline: %d raw trials, %d valid outcomes, %d non-dominated\n\n",
		res.RawTrials, len(res.Trials), len(res.FrontIdx))

	if all || *table3 {
		fmt.Println(report.Table3(res).Render())
	}
	if all || *table4 {
		fmt.Println(report.Table4(res).Render())
	}
	if all || *table5 {
		baselines, err := core.Baselines(nil, paperSurrogate, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(report.Table5(baselines).Render())
		front := res.NonDominated()
		wins := 0
		for _, ok := range core.DominatesBaseline(front, baselines, 1.5) {
			if ok {
				wins++
			}
		}
		fmt.Printf("%d/%d non-dominated models beat their stock baseline on latency+memory at comparable accuracy\n\n",
			wins, len(front))
	}
	if all || *figure3 {
		fmt.Println(report.Figure3Scatter(res))
	}
	if all || *figure4 {
		for _, r := range report.Figure4Radars(res) {
			fmt.Println(r.Render())
		}
	}
	if all || *quality {
		pts := res.Points()
		ref := pareto.ReferenceFromWorst(pts, core.Objectives, 0.05)
		var frontPts []pareto.Point
		for _, i := range res.FrontIdx {
			frontPts = append(frontPts, pts[i])
		}
		hv := pareto.Hypervolume(frontPts, core.Objectives, ref)
		knee := pareto.KneePoint(pts, res.FrontIdx, core.Objectives)
		fmt.Printf("front quality: hypervolume %.1f (ref at worst+5%%)\n", hv)
		if knee >= 0 {
			kt := res.Trials[knee]
			fmt.Printf("knee point: acc %.2f%%  lat %.2f ms  mem %.2f MB  (%s)\n",
				kt.Accuracy, kt.LatencyMS, kt.MemoryMB, kt.Config.Key())
		}
		front4 := res.NonDominatedWithEnergy()
		fmt.Printf("energy-extended (4-objective) front: %d members; energy range on 3-obj front: ", len(front4))
		loE, hiE := res.Trials[res.FrontIdx[0]].EnergyMJ, res.Trials[res.FrontIdx[0]].EnergyMJ
		for _, i := range res.FrontIdx {
			loE, hiE = min(loE, res.Trials[i].EnergyMJ), max(hiE, res.Trials[i].EnergyMJ)
		}
		fmt.Printf("%.1f-%.1f mJ\n\n", loE, hiE)
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(report.Figure3Data(res).CSV()), 0o666); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Figure 3 data written to %s\n", *csvPath)
	}
}

// datagen synthesizes the drainage-crossing corpus and prints its Table 1
// inventory plus per-band statistics. With -full it generates the paper's
// full 12,068 chips; the default scale produces a miniature corpus with the
// same structure.
func datagen(args []string) {
	fs := flag.NewFlagSet("datagen", flag.ExitOnError)
	var (
		chipSize = fs.Int("size", 64, "chip side length in pixels")
		scale    = fs.Int("scale", 50, "divide Table 1 counts by this factor")
		full     = fs.Bool("full", false, "generate the full 12,068-chip corpus (overrides -scale)")
		seed     = fs.Uint64("seed", 1, "generation seed")
		stats    = fs.Bool("stats", false, "print per-band statistics of a sample chip")
		pngDir   = fs.String("png", "", "write sample chip PNGs (RGB/DEM/NDVI/NDWI/false-color) to this directory")
	)
	fs.Parse(args)

	if *full {
		*scale = 1
	}
	corpusOpts := corpusOptions(fs, "size", *chipSize, *scale, *seed)
	fmt.Printf("Generating corpus: chip %dx%d px, scale 1/%d, seed %d\n\n",
		*chipSize, *chipSize, *scale, *seed)
	corpus := geodata.GenerateCorpus(corpusOpts)
	fmt.Println(corpus.Table1())
	fmt.Printf("balance: %.1f%% positive\n", 100*corpus.Balance())

	if *stats {
		chip := corpus.Chips[0] // every region contributes chips at any scale
		fmt.Printf("\nSample chip (%s, label %d) band statistics:\n", chip.Region, chip.Label)
		for b := 0; b < geodata.NumBands; b++ {
			mean, std := chip.Stats(b)
			fmt.Printf("  %-6s mean %+.3f  std %.3f\n", geodata.BandNames[b], mean, std)
		}
	}

	if *pngDir != "" {
		if err := writeSamplePNGs(corpus, *pngDir); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("\nPaper Table 1 totals: %d chips across %d regions (reproduced at scale 1/%d)\n",
		geodata.TotalSamples(), len(geodata.StudyRegions), *scale)
}

// writeSamplePNGs renders the first positive and first negative chip in
// every available mode.
func writeSamplePNGs(corpus *geodata.Corpus, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	modes := map[string]geodata.RenderMode{
		"rgb": geodata.RenderRGB, "dem": geodata.RenderDEM,
		"ndvi": geodata.RenderNDVI, "ndwi": geodata.RenderNDWI,
		"falsecolor": geodata.RenderFalseColor,
	}
	wrote := 0
	for _, label := range []int{1, 0} {
		i := slices.IndexFunc(corpus.Chips, func(c geodata.Chip) bool { return c.Label == label })
		if i < 0 {
			continue
		}
		for name, mode := range modes {
			var buf bytes.Buffer
			if err := geodata.ChipPNG(corpus.Chips[i], mode, &buf); err != nil {
				return err
			}
			path := filepath.Join(dir, fmt.Sprintf("chip_label%d_%s.png", label, name))
			if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
				return err
			}
			wrote++
		}
	}
	fmt.Printf("wrote %d sample PNGs to %s\n", wrote, dir)
	return nil
}

// trainer trains one ResNet configuration end to end on the synthetic
// drainage-crossing corpus and reports train/validation accuracy, or with
// -describe prints the architecture (the textual Figure 1). With -out,
// -load or -url it then runs the deployment drill on the trained model.
func trainer(args []string) {
	fs := flag.NewFlagSet("trainer", flag.ExitOnError)
	cfg := stemFlags(fs, resnet.Config{
		Channels: 5, KernelSize: 3, Stride: 2, Padding: 1,
		KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 32, NumClasses: 2,
	}, "input channels (5 or 7)")
	fs.IntVar(&cfg.Batch, "batch", 8, "batch size")
	var (
		epochs   = fs.Int("epochs", 5, "training epochs")
		lr       = fs.Float64("lr", 0.02, "SGD learning rate")
		chip     = fs.Int("chip", 32, "chip size in pixels")
		scale    = fs.Int("scale", 120, "corpus scale divisor")
		seed     = fs.Uint64("seed", 7, "seed")
		describe = fs.Bool("describe", false, "print the architecture and exit")
	)
	deploy := deploymentFlags(fs)
	fs.Parse(args)
	drill := deploy.wanted(fs)

	rng := tensor.NewRNG(*seed)
	model, err := resnet.New(*cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	if *describe {
		fmt.Print(model.Describe())
		return
	}
	corpusOpts := corpusOptions(fs, "chip", *chip, *scale, *seed)
	if _, err := cfg.CheckSpatial(*chip); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Generating corpus (chip %d px, scale 1/%d)...\n", *chip, *scale)
	data := dataset.New(geodata.GenerateCorpus(corpusOpts).Tensors(cfg.Channels))
	trainIdx, valIdx := dataset.TrainTestSplit(data.Labels, 0.2, rng)
	train, val := data.Subset(trainIdx), data.Subset(valIdx)
	stats := train.ComputeStats()
	train.Normalize(stats)
	val.Normalize(stats)
	fmt.Printf("train %d / val %d samples, %d channels\n", train.Len(), val.Len(), cfg.Channels)
	fmt.Printf("model: %d parameters\n\n", model.NumParams())

	tr := nas.NewTrainer(model, nas.TrainOptions{Epochs: *epochs, LR: *lr, Momentum: 0.9, WeightDecay: 1e-4})
	for epoch := range *epochs {
		start := time.Now()
		loss := tr.Epoch(epoch, train, rng)
		fmt.Printf("epoch %d: loss %.4f  val acc %.2f%%  (%.1fs, lr %.4f)\n",
			epoch+1, loss, 100*nas.Accuracy(model, val), time.Since(start).Seconds(), tr.LR())
	}
	fmt.Printf("\nfinal: train acc %.2f%%  val acc %.2f%%\n",
		100*nas.Accuracy(model, train), 100*nas.Accuracy(model, val))

	// Full classification report on the validation split: a culvert
	// detector is judged on recall and AUC, not accuracy alone.
	rep := report.Evaluate(positiveScores(model, val, cfg.Batch), val.Labels, 0.5)
	fmt.Printf("validation report: %s\n", rep)

	if drill {
		deploy.run(model, *cfg, *chip, train, val)
	}
}

// positiveScores collects the softmax probability of the positive class
// for every sample of d, in d's order.
func positiveScores(m *resnet.Model, d *dataset.Dataset, batch int) []float64 {
	var scores []float64
	for _, idxs := range d.Batches(batch, nil) {
		x, _ := d.Batch(idxs)
		probs := tensor.SoftmaxRows(m.Forward(x, false))
		for r := range idxs {
			scores = append(scores, float64(probs.At(r, 1)))
		}
	}
	return scores
}
