package infer

import (
	"fmt"

	"drainnas/internal/tensor"
)

// Prediction is one request's output from RunBatch.
type Prediction struct {
	// Logits is the (classes)-length score vector for the sample.
	Logits []float32
	// Class is the argmax of Logits.
	Class int
}

// RunBatch executes the plan over a set of independent single-image inputs,
// stacking them along the batch dimension so the per-call overhead of
// conv/matmul dispatch amortizes across the batch. Each input is either
// (C, H, W) or (1, C, H, W); inputs with the same spatial size are stacked
// into one forward pass, and inputs with differing sizes are grouped so
// every group runs as one stacked batch. Results come back in input order.
//
// RunBatch is the serving-side entry point: the batcher in internal/serve
// feeds it whole flush batches. It is safe for concurrent use — each call
// draws a pooled session, and the per-request logits are copied out of the
// session arena before the session is returned. The chips are stacked into
// a slab the session keeps per batch shape, so in the steady state a call
// allocates only what it hands out: the result slice and each request's
// logits.
func (p *Plan) RunBatch(inputs []*tensor.Tensor) ([]Prediction, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	for i, in := range inputs {
		if err := p.checkChip(i, in); err != nil {
			return nil, err
		}
	}
	sess := p.getSession()
	defer p.putSession(sess)
	out := make([]Prediction, len(inputs))
	// Groups run in order of first appearance; a request whose logits are
	// set already ran with an earlier group.
	for first, in := range inputs {
		if out[first].Logits != nil {
			continue
		}
		h, w := chipSize(in)
		inGroup := func(t *tensor.Tensor) bool {
			th, tw := chipSize(t)
			return th == h && tw == w
		}
		rest := inputs[first:]
		n := 0
		for _, t := range rest {
			if inGroup(t) {
				n++
			}
		}
		x := sess.staging(arenaKey{n: n, h: h, w: w})
		plane := p.inC * h * w
		bi := 0
		for _, t := range rest {
			if inGroup(t) {
				copy(x.Data()[bi*plane:(bi+1)*plane], t.Data())
				bi++
			}
		}
		logits, err := sess.Forward(x)
		if err != nil {
			return nil, err
		}
		nOut := logits.Dim(1)
		bi = 0
		for i, t := range rest {
			if inGroup(t) {
				row := make([]float32, nOut)
				copy(row, logits.Data()[bi*nOut:(bi+1)*nOut])
				out[first+i] = Prediction{Logits: row, Class: tensor.ArgMax(row)}
				bi++
			}
		}
	}
	return out, nil
}

// checkChip validates batch input i: (C, H, W) or (1, C, H, W) with the
// model's channel count.
func (p *Plan) checkChip(i int, in *tensor.Tensor) error {
	if in == nil {
		return fmt.Errorf("infer: batch input %d is nil", i)
	}
	c := 0
	switch in.NDim() {
	case 3:
		c = in.Dim(0)
	case 4:
		if in.Dim(0) != 1 {
			return fmt.Errorf("infer: batch input %d has batch dim %d, want 1", i, in.Dim(0))
		}
		c = in.Dim(1)
	default:
		return fmt.Errorf("infer: batch input %d must be (C,H,W) or (1,C,H,W), got %v", i, in.Shape())
	}
	if c != p.inC {
		return fmt.Errorf("infer: batch input %d has %d channels, model wants %d", i, c, p.inC)
	}
	return nil
}

// chipSize returns the spatial size of a checked batch input.
func chipSize(in *tensor.Tensor) (h, w int) {
	return in.Dim(in.NDim() - 2), in.Dim(in.NDim() - 1)
}
