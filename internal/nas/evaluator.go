package nas

import (
	"fmt"

	"drainnas/internal/dataset"
	"drainnas/internal/nn"
	"drainnas/internal/parallel"
	"drainnas/internal/resnet"
	"drainnas/internal/surrogate"
	"drainnas/internal/tensor"
)

// Evaluator scores one candidate architecture, returning its (k-fold mean)
// validation accuracy in percent.
type Evaluator interface {
	Evaluate(cfg resnet.Config) (float64, error)
}

// SurrogateEvaluator scores candidates with the calibrated analytic
// accuracy model — the backend for the full 1,717-trial sweep.
type SurrogateEvaluator struct {
	Model surrogate.Model
}

// Evaluate returns the surrogate's simulated 5-fold accuracy.
func (e SurrogateEvaluator) Evaluate(cfg resnet.Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	return e.Model.Accuracy(cfg), nil
}

// TrainOptions configures real training inside TrainEvaluator.
type TrainOptions struct {
	// Epochs per fold (the paper uses 5).
	Epochs int
	// Folds for cross-validation (the paper uses 5).
	Folds int
	// LR is the initial SGD learning rate; Momentum and WeightDecay the
	// usual SGD knobs.
	LR          float64
	Momentum    float64
	WeightDecay float64
	// Seed drives weight init and batch shuffling.
	Seed uint64
	// MaxTrainBatches caps the number of batches per epoch (0 = all); used
	// to bound CPU cost in tests and examples.
	MaxTrainBatches int
	// Augment applies label-preserving geometric/noise augmentation to
	// training batches (validation batches are never augmented).
	Augment dataset.AugmentOptions
	// LabelSmoothing is the ε of the smoothed cross-entropy (0 = plain CE).
	LabelSmoothing float64
	// ParallelFolds trains the cross-validation folds concurrently. Folds
	// are independent models, so this composes with (and multiplies) the
	// batch-level parallelism inside each fold; enable it when the trial
	// level is not already saturating the machine.
	ParallelFolds bool
}

// TrainEvaluator trains each candidate for real on a dataset with
// stratified k-fold cross-validation and reports the mean validation
// accuracy — the paper's NNI evaluation protocol, at whatever scale the
// provided dataset has.
type TrainEvaluator struct {
	// Data holds the full corpus at the evaluator's channel count. The
	// candidate's Channels field must match Data's channel dimension.
	Data *dataset.Dataset
	Opts TrainOptions
}

// Evaluate runs k-fold training and returns the mean validation accuracy in
// percent.
func (e TrainEvaluator) Evaluate(cfg resnet.Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if e.Data == nil {
		return 0, fmt.Errorf("nas: TrainEvaluator has no dataset")
	}
	if cfg.Channels != e.Data.Channels() {
		return 0, fmt.Errorf("nas: config wants %d channels, dataset has %d", cfg.Channels, e.Data.Channels())
	}
	inputSize := e.Data.X.Dim(2)
	if _, err := cfg.CheckSpatial(inputSize); err != nil {
		return 0, err
	}
	opts := e.Opts
	if opts.Epochs <= 0 {
		opts.Epochs = 5
	}
	if opts.Folds < 2 {
		opts.Folds = 5
	}
	if opts.LR <= 0 {
		opts.LR = 0.01
	}

	foldRNG := tensor.NewRNG(opts.Seed ^ 0xF01D)
	folds := dataset.StratifiedKFold(e.Data.Labels, opts.Folds, foldRNG)
	accs := make([]float64, len(folds))
	errs := make([]error, len(folds))
	runFold := func(fi int) {
		acc, err := e.trainOneFold(cfg, folds[fi], opts, uint64(fi))
		accs[fi], errs[fi] = acc, err
	}
	if opts.ParallelFolds {
		parallel.Map(len(folds), len(folds), runFold)
	} else {
		for fi := range folds {
			runFold(fi)
		}
	}
	sum := 0.0
	for fi := range folds {
		if errs[fi] != nil {
			return 0, fmt.Errorf("nas: fold %d: %w", fi, errs[fi])
		}
		sum += accs[fi]
	}
	return 100 * sum / float64(len(folds)), nil
}

// trainOneFold trains a fresh model on the fold's training split and
// returns validation accuracy in [0, 1].
func (e TrainEvaluator) trainOneFold(cfg resnet.Config, fold dataset.Fold, opts TrainOptions, foldID uint64) (float64, error) {
	train := e.Data.Subset(fold.Train)
	val := e.Data.Subset(fold.Val)
	stats := train.ComputeStats()
	train.Normalize(stats)
	val.Normalize(stats)

	rng := tensor.NewRNG(opts.Seed*0x9E3779B97F4A7C15 + foldID)
	model, err := resnet.New(cfg, rng)
	if err != nil {
		return 0, err
	}
	opt := nn.NewSGD(model.Params(), opts.LR, opts.Momentum, opts.WeightDecay)
	sched := nn.CosineLRSchedule(opts.LR, opts.LR/10, opts.Epochs)

	for epoch := 0; epoch < opts.Epochs; epoch++ {
		opt.SetLR(sched(epoch))
		batches := train.Batches(cfg.Batch, rng)
		if opts.MaxTrainBatches > 0 && len(batches) > opts.MaxTrainBatches {
			batches = batches[:opts.MaxTrainBatches]
		}
		for _, idxs := range batches {
			x, labels := train.Batch(idxs)
			x = opts.Augment.Apply(x, rng)
			logits := model.Forward(x, true)
			_, grad := nn.CrossEntropyLS(logits, labels, opts.LabelSmoothing)
			nn.ZeroGrad(model.Params())
			model.Backward(grad)
			nn.ClipGradNorm(model.Params(), 5)
			opt.Step()
		}
	}
	return evalAccuracy(model, val, cfg.Batch), nil
}

// evalAccuracy measures accuracy of a model over a dataset in eval mode.
func evalAccuracy(model *resnet.Model, d *dataset.Dataset, batch int) float64 {
	correct, total := 0, 0
	for _, idxs := range d.Batches(batch, nil) {
		x, labels := d.Batch(idxs)
		logits := model.Forward(x, false)
		preds := tensor.ArgMaxRows(logits)
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
