// Command latpred predicts a configuration's inference latency on the four
// nn-Meter-style device predictors, optionally with a per-kernel breakdown
// (-breakdown <device>) or a predictor-accuracy validation reproducing
// Table 2 (-validate).
package main

import (
	"flag"
	"fmt"
	"log"

	"drainnas/internal/latmeter"
	"drainnas/internal/nas"
	"drainnas/internal/resnet"
)

func main() {
	var (
		channels  = flag.Int("channels", 5, "input channels")
		kernel    = flag.Int("kernel", 7, "stem kernel size")
		stride    = flag.Int("stride", 2, "stem stride")
		padding   = flag.Int("padding", 3, "stem padding")
		pool      = flag.Int("pool", 1, "stem max-pool choice (0/1)")
		poolK     = flag.Int("pool-kernel", 3, "stem pool kernel")
		poolS     = flag.Int("pool-stride", 2, "stem pool stride")
		width     = flag.Int("width", 64, "initial output feature width")
		inputSize = flag.Int("input", latmeter.DefaultInputSize, "input image side")
		breakdown = flag.String("breakdown", "", "print per-kernel latency for this device")
		validate  = flag.Bool("validate", false, "validate predictors against the device simulator (Table 2)")
		samples   = flag.Int("samples", 20000, "validation sample count")
	)
	flag.Parse()

	cfg := resnet.Config{
		Channels: *channels, Batch: 1,
		KernelSize: *kernel, Stride: *stride, Padding: *padding,
		PoolChoice: *pool, KernelSizePool: *poolK, StridePool: *poolS,
		InitialOutputFeature: *width, NumClasses: 2,
	}

	if *validate {
		runValidation(*inputSize, *samples)
		return
	}

	g, err := latmeter.Decompose(cfg, *inputSize)
	if err != nil {
		log.Fatalf("latpred: %v", err)
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
		names, lats, err := latmeter.Breakdown(cfg, *inputSize, *breakdown)
		if err != nil {
			log.Fatalf("latpred: %v", err)
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
			log.Fatalf("latpred: %v", err)
		}
		graphs = append(graphs, g)
		keys = append(keys, cfg.Key())
	}
	fmt.Printf("validating 4 predictors over %d models x %d measurements\n\n", len(graphs), samples)
	fmt.Printf("%-14s %-26s %-16s %s\n", "Hardware name", "Device", "Framework", "±10% Accuracy")
	for _, d := range latmeter.Devices() {
		sim := latmeter.NewDeviceSimulator(d, 2023)
		res := sim.Validate(graphs, keys, samples, 7)
		fmt.Printf("%-14s %-26s %-16s %.2f%%\n", d.Name, d.HW, d.Framework, 100*res.Within10Pct)
	}
	fmt.Println("\npaper Table 2: 99.00% / 99.10% / 99.00% / 83.40%")
}
