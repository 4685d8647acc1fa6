package nas

import (
	"fmt"

	"drainnas/internal/dataset"
	"drainnas/internal/nn"
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
// percent. A corpus too small to give every fold both a training and a
// validation sample is an error, so the trial fails instead of the sweep.
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
	if n := e.Data.Len(); n < opts.Folds {
		return 0, fmt.Errorf("nas: %d samples cannot fill %d folds", n, opts.Folds)
	}

	foldRNG := tensor.NewRNG(opts.Seed ^ 0xF01D)
	folds := dataset.StratifiedKFold(e.Data.Labels, opts.Folds, foldRNG)
	for fi, fold := range folds {
		if len(fold.Train) == 0 || len(fold.Val) == 0 {
			return 0, fmt.Errorf("nas: fold %d of %d has %d training and %d validation samples",
				fi, len(folds), len(fold.Train), len(fold.Val))
		}
	}
	sum := 0.0
	for fi, fold := range folds {
		acc, err := e.trainOneFold(cfg, fold, opts, uint64(fi))
		if err != nil {
			return 0, fmt.Errorf("nas: fold %d: %w", fi, err)
		}
		sum += acc
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
	tr := NewTrainer(model, opts)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		tr.Epoch(epoch, train, rng)
	}
	return Accuracy(model, val), nil
}

// Trainer is the paper's training protocol for one model, and the one SGD
// loop TrainEvaluator's folds and nascli trainer run: the learning rate on
// a cosine from opts.LR down to opts.LR/10 across opts.Epochs, SGD with
// opts.Momentum and opts.WeightDecay, and every step's gradient clipped to
// norm 5.
type Trainer struct {
	model *resnet.Model
	opt   *nn.SGD
	lr    func(epoch int) float64
}

// NewTrainer starts model under opts' Epochs, LR, Momentum and WeightDecay.
func NewTrainer(model *resnet.Model, opts TrainOptions) *Trainer {
	return &Trainer{
		model: model,
		opt:   nn.NewSGD(model.Params(), opts.LR, opts.Momentum, opts.WeightDecay),
		lr:    nn.CosineLRSchedule(opts.LR, opts.LR/10, opts.Epochs),
	}
}

// Epoch runs epoch e (counted from 0): it sets the epoch's learning rate,
// then takes one step per batch of d — batches of the model's Config.Batch,
// shuffled by rng — on the cross-entropy loss, and returns the epoch's mean
// batch loss.
func (t *Trainer) Epoch(e int, d *dataset.Dataset, rng *tensor.RNG) float64 {
	t.opt.SetLR(t.lr(e))
	params := t.model.Params()
	total, batches := 0.0, 0
	for _, idxs := range d.Batches(t.model.Config.Batch, rng) {
		x, labels := d.Batch(idxs)
		loss, grad := nn.CrossEntropy(t.model.Forward(x, true), labels)
		nn.ZeroGrad(params)
		t.model.Backward(grad)
		nn.ClipGradNorm(params, 5)
		t.opt.Step()
		total += loss
		batches++
	}
	return total / float64(batches)
}

// LR returns the learning rate of the last epoch run.
func (t *Trainer) LR() float64 { return t.opt.LR() }

// Accuracy is the share of d's samples the model classifies correctly in
// eval mode, in [0, 1], run in batches of the model's Config.Batch.
func Accuracy(model *resnet.Model, d *dataset.Dataset) float64 {
	correct, total := 0, 0
	for _, idxs := range d.Batches(model.Config.Batch, nil) {
		x, labels := d.Batch(idxs)
		for i, p := range tensor.ArgMaxRows(model.Forward(x, false)) {
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
