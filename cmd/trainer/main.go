// Command trainer trains one ResNet configuration end to end on the
// synthetic drainage-crossing corpus and reports train/validation accuracy,
// or with -describe prints the architecture (the textual Figure 1).
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"drainnas/internal/dataset"
	"drainnas/internal/geodata"
	"drainnas/internal/nn"
	"drainnas/internal/report"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

func main() {
	var (
		channels = flag.Int("channels", 5, "input channels (5 or 7)")
		batch    = flag.Int("batch", 8, "batch size")
		kernel   = flag.Int("kernel", 3, "stem kernel size")
		stride   = flag.Int("stride", 2, "stem stride")
		padding  = flag.Int("padding", 1, "stem padding")
		pool     = flag.Int("pool", 0, "stem max-pool choice (0/1)")
		poolK    = flag.Int("pool-kernel", 3, "stem pool kernel")
		poolS    = flag.Int("pool-stride", 2, "stem pool stride")
		width    = flag.Int("width", 32, "initial output feature width")
		epochs   = flag.Int("epochs", 5, "training epochs")
		lr       = flag.Float64("lr", 0.02, "SGD learning rate")
		chip     = flag.Int("chip", 32, "chip size in pixels")
		scale    = flag.Int("scale", 120, "corpus scale divisor")
		seed     = flag.Uint64("seed", 7, "seed")
		describe = flag.Bool("describe", false, "print the architecture and exit")
	)
	flag.Parse()

	cfg := resnet.Config{
		Channels: *channels, Batch: *batch,
		KernelSize: *kernel, Stride: *stride, Padding: *padding,
		PoolChoice: *pool, KernelSizePool: *poolK, StridePool: *poolS,
		InitialOutputFeature: *width, NumClasses: 2,
	}
	if err := cfg.Validate(); err != nil {
		log.Fatalf("trainer: %v", err)
	}
	rng := tensor.NewRNG(*seed)
	model, err := resnet.New(cfg, rng)
	if err != nil {
		log.Fatalf("trainer: %v", err)
	}
	if *describe {
		fmt.Print(model.Describe())
		return
	}
	if _, err := cfg.CheckSpatial(*chip); err != nil {
		log.Fatalf("trainer: %v", err)
	}

	fmt.Printf("Generating corpus (chip %d px, scale 1/%d)...\n", *chip, *scale)
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: *chip, Scale: *scale, Seed: *seed})
	x, labels := corpus.Tensors(*channels)
	data := dataset.New(x, labels)
	trainIdx, valIdx := dataset.TrainTestSplit(labels, 0.2, rng)
	train := data.Subset(trainIdx)
	val := data.Subset(valIdx)
	stats := train.ComputeStats()
	train.Normalize(stats)
	val.Normalize(stats)
	fmt.Printf("train %d / val %d samples, %d channels\n", train.Len(), val.Len(), *channels)
	fmt.Printf("model: %d parameters\n\n", model.NumParams())

	opt := nn.NewSGD(model.Params(), *lr, 0.9, 1e-4)
	sched := nn.CosineLRSchedule(*lr, *lr/10, *epochs)
	for epoch := 0; epoch < *epochs; epoch++ {
		opt.SetLR(sched(epoch))
		start := time.Now()
		totalLoss, batches := 0.0, 0
		for _, idxs := range train.Batches(cfg.Batch, rng) {
			bx, by := train.Batch(idxs)
			logits := model.Forward(bx, true)
			loss, grad := nn.CrossEntropy(logits, by)
			nn.ZeroGrad(model.Params())
			model.Backward(grad)
			nn.ClipGradNorm(model.Params(), 5)
			opt.Step()
			totalLoss += loss
			batches++
		}
		fmt.Printf("epoch %d: loss %.4f  val acc %.2f%%  (%.1fs, lr %.4f)\n",
			epoch+1, totalLoss/float64(batches), 100*accuracy(model, val, cfg.Batch),
			time.Since(start).Seconds(), opt.LR())
	}
	fmt.Printf("\nfinal: train acc %.2f%%  val acc %.2f%%\n",
		100*accuracy(model, train, cfg.Batch), 100*accuracy(model, val, cfg.Batch))

	// Full classification report on the validation split: a culvert
	// detector is judged on recall and AUC, not accuracy alone.
	scores, valLabels := positiveScores(model, val, cfg.Batch)
	rep := report.Evaluate(scores, valLabels, 0.5)
	fmt.Printf("validation report: %s\n", rep)
}

// positiveScores collects the softmax probability of the positive class
// for every sample of d.
func positiveScores(m *resnet.Model, d *dataset.Dataset, batch int) ([]float64, []int) {
	var scores []float64
	var labels []int
	for _, idxs := range d.Batches(batch, nil) {
		x, by := d.Batch(idxs)
		probs := tensor.SoftmaxRows(m.Forward(x, false))
		for r := 0; r < len(by); r++ {
			scores = append(scores, float64(probs.At(r, 1)))
			labels = append(labels, by[r])
		}
	}
	return scores, labels
}

func accuracy(m *resnet.Model, d *dataset.Dataset, batch int) float64 {
	correct, total := 0, 0
	for _, idxs := range d.Batches(batch, nil) {
		x, labels := d.Batch(idxs)
		preds := tensor.ArgMaxRows(m.Forward(x, false))
		for i, p := range preds {
			if p == labels[i] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
