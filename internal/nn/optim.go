package nn

import (
	"math"

	"drainnas/internal/tensor"
)

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay.
type SGD struct {
	params      []*Param
	lr          float64
	momentum    float64
	weightDecay float64
	velocity    []*tensor.Tensor
}

// NewSGD builds an SGD optimizer over params.
func NewSGD(params []*Param, lr, momentum, weightDecay float64) *SGD {
	s := &SGD{params: params, lr: lr, momentum: momentum, weightDecay: weightDecay}
	if momentum != 0 {
		s.velocity = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			s.velocity[i] = tensor.New(p.Data.Shape()...)
		}
	}
	return s
}

// Step applies v = μv + g + λw; w -= lr*v (or plain w -= lr*(g+λw) without
// momentum).
func (s *SGD) Step() {
	for i, p := range s.params {
		w := p.Data.Data()
		g := p.Grad.Data()
		if s.velocity == nil {
			for j := range w {
				w[j] -= float32(s.lr) * (g[j] + float32(s.weightDecay)*w[j])
			}
			continue
		}
		v := s.velocity[i].Data()
		mu := float32(s.momentum)
		wd := float32(s.weightDecay)
		lr := float32(s.lr)
		for j := range w {
			v[j] = mu*v[j] + g[j] + wd*w[j]
			w[j] -= lr * v[j]
		}
	}
}

// SetLR sets the learning rate.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// LR returns the learning rate.
func (s *SGD) LR() float64 { return s.lr }

// CosineLRSchedule anneals lr0 to lrMin over total epochs.
func CosineLRSchedule(lr0, lrMin float64, total int) func(epoch int) float64 {
	return func(epoch int) float64 {
		if total <= 1 {
			return lr0
		}
		t := float64(epoch) / float64(total-1)
		if t > 1 {
			t = 1
		}
		return lrMin + 0.5*(lr0-lrMin)*(1+math.Cos(math.Pi*t))
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	norm := GradNorm(params)
	if norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := float32(maxNorm / norm)
	for _, p := range params {
		tensor.ScaleInPlace(p.Grad, scale)
	}
	return norm
}
