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

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	params       []*Param
	lr           float64
	beta1, beta2 float64
	eps          float64
	weightDecay  float64
	step         int
	moment1      []*tensor.Tensor
	moment2      []*tensor.Tensor
}

// NewAdam builds an Adam optimizer with the usual defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{
		params: params, lr: lr,
		beta1: 0.9, beta2: 0.999, eps: 1e-8,
		moment1: make([]*tensor.Tensor, len(params)),
		moment2: make([]*tensor.Tensor, len(params)),
	}
	for i, p := range params {
		a.moment1[i] = tensor.New(p.Data.Shape()...)
		a.moment2[i] = tensor.New(p.Data.Shape()...)
	}
	return a
}

// Step applies one Adam update.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.beta2, float64(a.step))
	for i, p := range a.params {
		w := p.Data.Data()
		g := p.Grad.Data()
		m := a.moment1[i].Data()
		v := a.moment2[i].Data()
		for j := range w {
			gj := float64(g[j]) + a.weightDecay*float64(w[j])
			mj := a.beta1*float64(m[j]) + (1-a.beta1)*gj
			vj := a.beta2*float64(v[j]) + (1-a.beta2)*gj*gj
			m[j] = float32(mj)
			v[j] = float32(vj)
			mHat := mj / bc1
			vHat := vj / bc2
			w[j] -= float32(a.lr * mHat / (math.Sqrt(vHat) + a.eps))
		}
	}
}

// SetLR sets the learning rate.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR returns the learning rate.
func (a *Adam) LR() float64 { return a.lr }

// StepLRSchedule decays lr0 by gamma every `every` epochs:
// lr(e) = lr0 * gamma^floor(e/every).
func StepLRSchedule(lr0, gamma float64, every int) func(epoch int) float64 {
	return func(epoch int) float64 {
		if every <= 0 {
			return lr0
		}
		return lr0 * math.Pow(gamma, float64(epoch/every))
	}
}

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
