package main

import (
	"context"
	"fmt"
	"time"

	"drainnas/internal/core"
	"drainnas/internal/dataset"
	"drainnas/internal/geodata"
	"drainnas/internal/latmeter"
	"drainnas/internal/nas"
	"drainnas/internal/onnxsize"
	"drainnas/internal/pareto"
	"drainnas/internal/resnet"
	"drainnas/internal/surrogate"
)

// Phase A of nas_search trains six fixed candidates for real; phase B
// repeats the paper's full surrogate sweep. The issue sized phase A at 3
// folds × 2 epochs on ~76 chips (~30 s a pass); under the driver's time cap
// it is 2 folds × 1 epoch on a corpus of 26 chips, so that one pass over the
// six candidates takes about two seconds and a phase holds several.
const (
	nasChip       = 32
	nasScale      = 400 // Table 1 counts ÷ this: 26 chips
	nasFolds      = 2
	nasEpochs     = 1
	nasTrainShare = 0.7 // of the phase; the rest is sweeps
	paperRaw      = 1728
)

// nasCandidates is kernel 3/7 × stem pool on/off × width 32/48, less the
// two widest pool-less stems.
func nasCandidates() []resnet.Config {
	var out []resnet.Config
	for _, c := range []struct{ kernel, pad, pool, width int }{
		{3, 1, 1, 32}, {3, 1, 1, 48}, {3, 1, 0, 32},
		{7, 3, 1, 32}, {7, 3, 1, 48}, {7, 3, 0, 32},
	} {
		out = append(out, resnet.Config{
			Channels: 5, Batch: 16, KernelSize: c.kernel, Stride: 2, Padding: c.pad,
			PoolChoice: c.pool, KernelSizePool: 3, StridePool: 2,
			InitialOutputFeature: c.width, NumClasses: 2,
		})
	}
	return out
}

type nasWorkload struct{}

func (nasWorkload) name() string { return "nas_search" }

type nasRun struct {
	e          *env
	data       *dataset.Dataset
	candidates []resnet.Config
	train      nas.TrainEvaluator
	surrogate  nas.SurrogateEvaluator
	corpusTime time.Duration
}

func (nasWorkload) setup(e *env) (instance, error) {
	r := &nasRun{e: e, candidates: nasCandidates(), surrogate: nas.SurrogateEvaluator{Model: surrogate.Default()}}
	t0 := time.Now()
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: nasChip, Scale: nasScale, Seed: e.seed})
	r.corpusTime = time.Since(t0)
	x, labels := corpus.Tensors(5)
	r.data = dataset.New(x, labels)
	r.train = nas.TrainEvaluator{Data: r.data, Opts: nas.TrainOptions{
		Epochs: nasEpochs, Folds: nasFolds, LR: 0.02, Momentum: 0.9, WeightDecay: 1e-4, Seed: e.seed,
	}}
	// One trial and one sweep fill the scratch pools before the clock starts.
	if _, err := r.train.Evaluate(r.candidates[0]); err != nil {
		return nil, fmt.Errorf("bench: warm-up trial: %w", err)
	}
	if _, _, err := r.sweep(r.surrogate); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *nasRun) close() error { return nil }

// samplesPerPass is the training samples one pass over the candidates
// processes: every fold trains on the other folds' share of the corpus.
func (r *nasRun) samplesPerPass() float64 {
	return float64(r.data.Len() * (nasFolds - 1) * nasEpochs * len(r.candidates))
}

// trainPass is one nas.Experiment over the candidates; every trial must
// succeed with an accuracy that is a percentage.
func (r *nasRun) trainPass(eval nas.Evaluator) (time.Duration, error) {
	t0 := time.Now()
	results := nas.Experiment(r.candidates, eval, nas.ExperimentOptions{})
	wall := time.Since(t0)
	if len(results) != len(r.candidates) {
		return wall, fmt.Errorf("nas.Experiment returned %d results for %d candidates", len(results), len(r.candidates))
	}
	for _, res := range results {
		if res.Status != nas.TrialSucceeded || res.Accuracy < 0 || res.Accuracy > 100 {
			return wall, fmt.Errorf("trial %d (%s): status %s accuracy %v: %s", res.ID, res.Config.Key(), res.Status, res.Accuracy, res.Err)
		}
	}
	return wall, nil
}

// sweep is one full core.Run over the paper's search space; it must
// attempt 1,728 trials, keep 1,717 and find a front.
func (r *nasRun) sweep(eval nas.Evaluator) (*core.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := core.Run(core.Options{Evaluator: eval, SimulateAttrition: true})
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, fmt.Errorf("core.Run: %w", err)
	}
	if res.RawTrials != paperRaw || len(res.Trials) != nas.PaperValidTrialCount || len(res.FrontIdx) == 0 {
		return nil, wall, fmt.Errorf("core.Run gave %d raw / %d valid trials and a front of %d", res.RawTrials, len(res.Trials), len(res.FrontIdx))
	}
	return res, wall, nil
}

// nasPhase is the passes and sweeps of one phase.
type nasPhase struct {
	passMS, sweepMS []float64
	last            *core.Result
	counts
}

// run trains for nasTrainShare of the phase and sweeps for the rest; each
// part runs at least once. With a tracer, every pass and every sweep is a
// root span and every evaluator call a span under it.
func (r *nasRun) run(phase time.Duration, tr *tracer) nasPhase {
	var p nasPhase
	fail := func(n int, err error) {
		p.failed += n
		if p.firstErr == nil {
			p.firstErr = err
		}
	}
	// traced wraps eval for one operation and returns what ends its root.
	traced := func(root, trial string, eval nas.Evaluator) (nas.Evaluator, func()) {
		if tr == nil {
			return eval, func() {}
		}
		ctx, sp := tr.start(context.Background(), root)
		return tracedEvaluator{tr: tr, ctx: ctx, name: trial, inner: eval}, sp.end
	}
	trainFor := time.Duration(nasTrainShare * float64(phase))
	for t0 := time.Now(); len(p.passMS) == 0 || time.Since(t0) < trainFor; {
		eval, end := traced(spanExperiment, spanTrial, r.train)
		wall, err := r.trainPass(eval)
		end()
		p.attempted += len(r.candidates)
		if err != nil {
			fail(len(r.candidates), err)
			return p
		}
		p.passMS = append(p.passMS, ms(wall))
	}
	front := 0
	for t0 := time.Now(); len(p.sweepMS) == 0 || time.Since(t0) < phase-trainFor; {
		eval, end := traced(spanSweep, spanSurrogate, r.surrogate)
		res, wall, err := r.sweep(eval)
		end()
		p.attempted++
		if err == nil && front != 0 && len(res.FrontIdx) != front {
			err = fmt.Errorf("front size changed between sweeps: %d then %d", front, len(res.FrontIdx))
		}
		if err != nil {
			fail(1, err)
			return p
		}
		front, p.last = len(res.FrontIdx), res
		p.sweepMS = append(p.sweepMS, ms(wall))
	}
	return p
}

func (r *nasRun) measure(phase time.Duration, rep *report) (counts, error) {
	p := r.run(phase, nil)
	if p.firstErr != nil {
		return p.counts, nil
	}
	rep.set("latency_p50_ms", quiet(p.sweepMS, lowerIsBetter))
	rep.set("throughput_per_s", r.samplesPerPass()/(quiet(p.passMS, lowerIsBetter)/1000))
	return p.counts, nil
}

// tracedEvaluator is the bench-owned nas.Evaluator around a real one.
type tracedEvaluator struct {
	tr    *tracer
	ctx   context.Context // carries the root span of the pass or sweep
	name  string
	inner nas.Evaluator
}

func (t tracedEvaluator) Evaluate(cfg resnet.Config) (float64, error) {
	_, sp := t.tr.start(t.ctx, t.name)
	defer sp.end()
	return t.inner.Evaluate(cfg)
}

func (r *nasRun) trace(phase time.Duration, rep *report) (counts, error) {
	plain := r.run(phase/2, nil)
	c := plain.counts
	if c.firstErr != nil {
		return c, nil
	}
	rep.set("loadgen.sent", float64(c.attempted))
	rep.set("loadgen.ok", float64(c.attempted))
	rep.set("loadgen.failed", 0)

	tr := newTracer()
	traced := r.run(phase/2, tr)
	c.attempted += traced.attempted
	c.failed += traced.failed
	c.firstErr = traced.firstErr
	spans := tr.spans()
	if err := writeTrace(r.e.root, nasWorkload{}.name(), r.e.seed, spans); err != nil || c.firstErr != nil {
		return c, err
	}
	ts := summarizeTrace(spans, spanSweep)
	rep.set("nas.trial_p50_s", median(ts.durMS[spanTrial])/1000)
	// The operation is a sweep: its self time is what core.Run spends
	// outside the evaluator — latmeter, onnxsize and pareto.
	traceLayer(rep, ts, median(plain.sweepMS))

	rep.set("geodata.corpus_ms", ms(r.corpusTime))
	space, combos := nas.PaperSpace(), nas.PaperInputCombos()
	var configs []resnet.Config
	rep.set("nas.enumerate_ms", ms(timeCalls(5, func() { configs = space.EnumerateAll(combos) })))
	rep.set("nas.experiment_ms", ms(timeCalls(3, func() {
		nas.Experiment(configs, r.surrogate, nas.ExperimentOptions{SimulateAttrition: true})
	})))
	trials := traced.last.Trials
	perTrial := func(f func(t core.Trial) error) (float64, error) {
		var err error
		d := timeCalls(1, func() {
			for _, t := range trials {
				if e := f(t); e != nil {
					err = e
				}
			}
		})
		return us(d) / float64(len(trials)), err
	}
	measure, err1 := perTrial(func(t core.Trial) error { _, err := core.Measure(t.Config, t.Accuracy, 0); return err })
	predict, err2 := perTrial(func(t core.Trial) error { _, err := latmeter.Predict(t.Config, latmeter.DefaultInputSize); return err })
	size, err3 := perTrial(func(t core.Trial) error { _, err := onnxsize.SizeMB(t.Config); return err })
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			return c, err
		}
	}
	rep.set("core.measure_us", measure)
	rep.set("latmeter.predict_us", predict)
	rep.set("onnxsize.size_us", size)
	points := traced.last.Points()
	rep.set("pareto.nds_ms", ms(timeCalls(5, func() { pareto.NonDominated(points, core.Objectives) })))

	if err := trainProbe(rep, r.data, r.candidates[0]); err != nil {
		return c, err
	}
	convBwdProbe(rep)
	return c, nil
}
