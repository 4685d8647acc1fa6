package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/dataset"
	"drainnas/internal/infer"
	"drainnas/internal/nn"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// The probes are direct timed calls of one layer's public functions, for
// the numbers no span around a whole request can give. Each reports a
// median over a fixed number of calls after one untimed call.

// timeCalls runs f once untimed, then n times, and returns the median
// duration of a call.
func timeCalls(n int, f func()) time.Duration {
	f()
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// apiProbe times the request marshalling route.HTTPReplica.Submit does for
// every forwarded request, which no span can see from outside.
func apiProbe(rep *report, chips []chip) {
	c := chips[0]
	req := api.PredictRequest{Model: "front32", Shape: []int{front32.Channels, chipSide, chipSide}, Data: c.x.Data()}
	var n int
	d := timeCalls(9, func() {
		b, err := json.Marshal(req)
		if err != nil {
			panic(err) // a []float32 of finite values always marshals
		}
		n = len(b)
	})
	rep.set("api.encode_req_ms", ms(d))
	rep.set("api.request_bytes", float64(n))
}

func forwardMS(p *infer.Plan, chips []chip) float64 {
	i := 0
	return ms(timeCalls(15, func() {
		if _, err := p.Forward(chips[i%len(chips)].x); err != nil {
			panic(err) // the same call succeeded when the references were computed
		}
		i++
	}))
}

// inferProbe times front32 at 5×100×100 alone: one chip, and a batch of
// eight as the batcher would stack them.
func inferProbe(rep *report, p *infer.Plan, chips []chip) {
	rep.set("infer.forward_b1_ms", forwardMS(p, chips))

	batch := make([]*tensor.Tensor, 8)
	for i := range batch {
		batch[i] = chips[i%len(chips)].x
	}
	d := timeCalls(5, func() {
		if _, err := p.RunBatch(batch); err != nil {
			panic(err)
		}
	})
	rep.set("infer.forward_b8_ms_per_sample", ms(d)/float64(len(batch)))

	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := p.Forward(chips[0].x); err != nil {
			panic(err)
		}
	}
	runtime.ReadMemStats(&after)
	rep.set("infer.allocs_per_forward", float64(after.Mallocs-before.Mallocs)/runs)
}

// convShape is one 3×3, stride-1, pad-1 convolution of front32.
type convShape struct{ channels, side int }

// front32's three heaviest convolutions are the block convolutions of its
// last three stages (64, 128 and 256 channels): at a 100×100 chip they see
// 13×13, 7×7 and 4×4 maps, at a 32×32 training chip 4×4, 2×2 and 1×1.
var (
	convFwdShapes = []convShape{{64, 13}, {128, 7}, {256, 4}}
	convBwdShapes = []convShape{{64, 4}, {128, 2}, {256, 1}}
)

func (s convShape) tensors(batch int) (x, w *tensor.Tensor) {
	rng := tensor.NewRNG(weightSeed)
	return tensor.RandNormal(rng, 1, batch, s.channels, s.side, s.side),
		tensor.RandNormal(rng, 0.05, s.channels, s.channels, 3, 3)
}

// flops is the multiply-adds of one forward pass, counted as two
// operations each.
func (s convShape) flops(batch int) float64 {
	return 2 * float64(batch) * float64(s.side*s.side) * float64(s.channels*s.channels) * 9
}

func convFwdProbe(rep *report) {
	var flops, secs float64
	for _, s := range convFwdShapes {
		x, w := s.tensors(1)
		secs += timeCalls(15, func() { tensor.Conv2D(x, w, nil, 1, 1) }).Seconds()
		flops += s.flops(1)
	}
	rep.set("tensor.conv_fwd_gflops", flops/secs/1e9)
}

func convBwdProbe(rep *report) {
	const batch = 8
	var flops, secs float64
	for _, s := range convBwdShapes {
		x, w := s.tensors(batch)
		gradOut := tensor.Ones(batch, s.channels, s.side, s.side)
		gradW := tensor.New(s.channels, s.channels, 3, 3)
		secs += timeCalls(15, func() { tensor.Conv2DBackward(x, w, gradOut, gradW, nil, 1, 1) }).Seconds()
		// The input gradient and the weight gradient each cost a forward.
		flops += 2 * s.flops(batch)
	}
	rep.set("tensor.conv_bwd_gflops", flops/secs/1e9)
}

// trainProbe times the four calls of one training step, per batch, on the
// width-32 candidate and the phase-A corpus.
func trainProbe(rep *report, data *dataset.Dataset, cfg resnet.Config) error {
	model, err := resnet.New(cfg, tensor.NewRNG(weightSeed))
	if err != nil {
		return err
	}
	opt := nn.NewSGD(model.Params(), 0.02, 0.9, 1e-4)
	batches := data.Batches(cfg.Batch, tensor.NewRNG(weightSeed))
	if len(batches) == 0 {
		return fmt.Errorf("bench: training corpus has no full batch")
	}
	var batchT, fwdT, bwdT, stepT []float64
	for pass := 0; pass < 4; pass++ {
		for _, idxs := range batches {
			t0 := time.Now()
			x, labels := data.Batch(idxs)
			t1 := time.Now()
			logits := model.Forward(x, true)
			t2 := time.Now()
			_, grad := nn.CrossEntropy(logits, labels)
			nn.ZeroGrad(model.Params())
			t3 := time.Now()
			model.Backward(grad)
			t4 := time.Now()
			opt.Step()
			t5 := time.Now()
			if pass == 0 {
				continue // untimed warm-up pass
			}
			batchT = append(batchT, ms(t1.Sub(t0)))
			fwdT = append(fwdT, ms(t2.Sub(t1)))
			bwdT = append(bwdT, ms(t4.Sub(t3)))
			stepT = append(stepT, ms(t5.Sub(t4)))
		}
	}
	rep.set("dataset.batch_ms", median(batchT))
	rep.set("nn.forward_ms", median(fwdT))
	rep.set("nn.backward_ms", median(bwdT))
	rep.set("nn.step_ms", median(stepT))
	return nil
}
