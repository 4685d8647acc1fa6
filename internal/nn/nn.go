// Package nn implements the neural-network layers, losses and optimizers
// needed to train the paper's configurable ResNet-18 on CPU: Conv2d,
// BatchNorm2d, ReLU, MaxPool2d, global average pooling, Linear, residual
// basic blocks, cross-entropy loss, and SGD with momentum.
//
// Differentiation is layer-level reverse mode: each layer caches what its
// backward pass needs during Forward and exposes Backward(gradOut) → gradIn,
// accumulating parameter gradients into Param.Grad. That is exactly the
// structure a static feed-forward CNN needs, without the bookkeeping of a
// general tape.
package nn

import (
	"fmt"
	"math"

	"drainnas/internal/tensor"
)

// Param is one learnable tensor with its accumulated gradient.
type Param struct {
	Name string
	Data *tensor.Tensor
	Grad *tensor.Tensor
}

// newParam allocates a parameter with a zeroed gradient of the same shape.
func newParam(name string, data *tensor.Tensor) *Param {
	return &Param{Name: name, Data: data, Grad: tensor.New(data.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module. Forward must be called before Backward;
// Backward consumes the cached activations from the most recent Forward.
type Layer interface {
	// Forward computes the layer output. train selects training behaviour
	// (batch statistics in BatchNorm, activation caching for backward).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the loss gradient, accumulating parameter
	// gradients, and returns the gradient w.r.t. the layer input.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params lists the layer's learnable parameters (possibly empty).
	Params() []*Param
	// Name identifies the layer for debugging and serialization.
	Name() string
}

// Sequential chains layers, feeding each output to the next.
type Sequential struct {
	name   string
	Layers []Layer
}

// NewSequential builds a named layer chain.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, Layers: layers}
}

// Add appends a layer.
func (s *Sequential) Add(l Layer) { s.Layers = append(s.Layers, l) }

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params concatenates all layer parameters in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Name returns the chain's name.
func (s *Sequential) Name() string { return s.name }

// ZeroGrad clears the gradients of every parameter in params.
func ZeroGrad(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// NumParams returns the total learnable element count.
func NumParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Data.Numel()
	}
	return n
}

// GradNorm returns the global L2 norm of all gradients, a cheap diagnostic
// for exploding/vanishing gradients.
func GradNorm(params []*Param) float64 {
	s := 0.0
	for _, p := range params {
		n := p.Grad.Norm2()
		s += n * n
	}
	return math.Sqrt(s)
}

// checkShape panics with a descriptive message unless got matches want.
func checkShape(layer string, got *tensor.Tensor, want ...int) {
	shape := got.Shape()
	if len(shape) != len(want) {
		panic(fmt.Sprintf("nn: %s got rank-%d input %v, want rank %d", layer, len(shape), shape, len(want)))
	}
	for i, d := range want {
		if d >= 0 && shape[i] != d {
			panic(fmt.Sprintf("nn: %s input shape %v, want dim %d == %d", layer, shape, i, d))
		}
	}
}
