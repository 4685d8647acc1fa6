// NAS with real training: synthesizes a miniature drainage-crossing corpus
// (the same four study regions as the paper's Table 1, scaled down), then
// runs architecture search where every candidate is actually trained with
// k-fold cross-validation on the pure-Go CNN engine — the paper's NNI
// protocol end to end, at laptop scale.
//
// The search compares three stem variants and two widths (12 candidates)
// and prints their measured accuracies, then cross-checks the surrogate's
// ordering against the real training results.
//
//	go run ./examples/nas_search
package main

import (
	"fmt"
	"log"
	"time"

	"drainnas/internal/dataset"
	"drainnas/internal/geodata"
	"drainnas/internal/nas"
	"drainnas/internal/resnet"
	"drainnas/internal/surrogate"
)

func main() {
	const channels = 5
	fmt.Println("synthesizing corpus (32px chips, Table 1 counts / 150)...")
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: 32, Scale: 150, Seed: 42})
	fmt.Print(corpus.Table1())
	x, labels := corpus.Tensors(channels)
	data := dataset.New(x, labels)

	eval := nas.TrainEvaluator{Data: data, Opts: nas.TrainOptions{
		Epochs: 3, Folds: 3, LR: 0.02, Momentum: 0.9, WeightDecay: 1e-4, Seed: 7,
	}}

	// Candidate stems: the paper's non-dominated family (3x3 stride-2),
	// the stock 7x7 stem, and a pooled 3x3 — at two widths.
	var candidates []resnet.Config
	for _, stem := range []struct {
		k, s, p, pool int
	}{
		{3, 2, 1, 0},
		{3, 2, 1, 1},
		{7, 2, 3, 1},
	} {
		for _, width := range []int{16, 32} {
			candidates = append(candidates, resnet.Config{
				Channels: channels, Batch: 16,
				KernelSize: stem.k, Stride: stem.s, Padding: stem.p,
				PoolChoice: stem.pool, KernelSizePool: 3, StridePool: 2,
				InitialOutputFeature: width, NumClasses: 2,
			})
		}
	}

	fmt.Printf("\ntraining %d candidates (3 epochs x 3 folds each)...\n\n", len(candidates))
	start := time.Now()
	results := nas.Experiment(candidates, eval, nas.ExperimentOptions{
		Workers: 2,
		Progress: func(done, total int) {
			fmt.Printf("  trial %d/%d done\n", done, total)
		},
	})
	fmt.Printf("\nsearch finished in %s\n\n", time.Since(start).Round(time.Second))

	fmt.Printf("%-44s %9s %10s\n", "config", "accuracy", "surrogate")
	surro := surrogate.Default()
	for _, r := range results {
		if r.Status != nas.TrialSucceeded {
			log.Printf("trial %d failed: %s", r.ID, r.Err)
			continue
		}
		fmt.Printf("%-44s %8.2f%% %9.2f%%\n", r.Config.Key(), r.Accuracy, surro.Mean(r.Config))
	}

	best, _ := nas.BestByAccuracy(results)
	fmt.Printf("\nbest: %.2f%%  %s\n", best.Accuracy, best.Config.Key())

	// Calibrate the surrogate's linear terms from these measurements — the
	// workflow that produced the library's default coefficients.
	var points []surrogate.CalPoint
	for _, r := range nas.Succeeded(results) {
		points = append(points, surrogate.CalPoint{Config: r.Config, Accuracy: r.Accuracy})
	}
	fitted := surrogate.Model{}.Calibrate(points)
	fmt.Printf("\nsurrogate refit on these runs: base %.2f, K3 effect %+.2f, RMSE %.2f points\n",
		fitted.Base, fitted.K3, fitted.RMSE(points))
}
