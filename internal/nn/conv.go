package nn

import (
	"fmt"
	"math"

	"drainnas/internal/tensor"
)

// Conv2d is a 2-D convolution layer with square kernels.
type Conv2d struct {
	name                string
	InC, OutC           int
	Kernel, Stride, Pad int

	Weight *Param

	cachedInput *tensor.Tensor
}

// NewConv2d constructs a bias-free convolution layer with Kaiming-normal
// initialized weights (fan-in mode, gain for ReLU). Every convolution here is
// followed by BatchNorm, whose shift makes a bias redundant, matching the
// ResNet reference implementation.
func NewConv2d(name string, rng *tensor.RNG, inC, outC, kernel, stride, pad int) *Conv2d {
	if kernel <= 0 || stride <= 0 || pad < 0 || inC <= 0 || outC <= 0 {
		panic(fmt.Sprintf("nn: invalid Conv2d geometry in=%d out=%d k=%d s=%d p=%d", inC, outC, kernel, stride, pad))
	}
	fanIn := inC * kernel * kernel
	std := math.Sqrt(2.0 / float64(fanIn))
	return &Conv2d{
		name: name, InC: inC, OutC: outC,
		Kernel: kernel, Stride: stride, Pad: pad,
		Weight: newParam(name+".weight", tensor.RandNormal(rng, std, outC, inC, kernel, kernel)),
	}
}

// Forward computes the convolution; in training mode the input is cached
// for the backward pass.
func (c *Conv2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkShape(c.name, x, -1, c.InC, -1, -1)
	if train {
		c.cachedInput = x
	} else {
		c.cachedInput = nil
	}
	return tensor.Conv2D(x, c.Weight.Data, nil, c.Stride, c.Pad)
}

// Backward propagates gradients, accumulating into Weight.Grad.
func (c *Conv2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.cachedInput == nil {
		panic(fmt.Sprintf("nn: %s Backward without a training Forward", c.name))
	}
	return tensor.Conv2DBackward(c.cachedInput, c.Weight.Data, grad, c.Weight.Grad, nil, c.Stride, c.Pad)
}

// Params returns the layer's learnable parameters: the weight alone.
func (c *Conv2d) Params() []*Param { return []*Param{c.Weight} }

// Name returns the layer name.
func (c *Conv2d) Name() string { return c.name }

// Linear is a fully connected layer: y = x·Wᵀ + b for x of shape (N, in).
// It runs as the 1×1 convolution of the (N, In, 1, 1) view of x with the
// (Out, In, 1, 1) view of W: the lowering the compiled plans give the head,
// on a driver whose kernel choice depends on the layer's shape alone, so a
// sample's output does not depend on the batch it rides in.
type Linear struct {
	name     string
	In, Out  int
	Weight   *Param         // (Out, In)
	Bias     *Param         // (Out)
	cachedIn *tensor.Tensor // (N, In, 1, 1)
}

// NewLinear constructs a fully connected layer with Kaiming-uniform-style
// initialization (uniform in ±1/sqrt(in)).
func NewLinear(name string, rng *tensor.RNG, in, out int) *Linear {
	bound := 1.0 / math.Sqrt(float64(in))
	return &Linear{
		name: name, In: in, Out: out,
		Weight: newParam(name+".weight", tensor.RandUniform(rng, -bound, bound, out, in)),
		Bias:   newParam(name+".bias", tensor.RandUniform(rng, -bound, bound, out)),
	}
}

// Forward computes the affine map.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkShape(l.name, x, -1, l.In)
	n := x.Dim(0)
	x4 := x.Reshape(n, l.In, 1, 1)
	if train {
		l.cachedIn = x4
	} else {
		l.cachedIn = nil
	}
	return tensor.Conv2D(x4, l.Weight.Data.Reshape(l.Out, l.In, 1, 1), l.Bias.Data, 1, 0).Reshape(n, l.Out)
}

// Backward accumulates dW = gradᵀ·x and db = Σ grad rows, returning
// gradIn = grad·W, as the 1×1 convolution's backward.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.cachedIn == nil {
		panic(fmt.Sprintf("nn: %s Backward without a training Forward", l.name))
	}
	n := grad.Dim(0)
	gradIn := tensor.Conv2DBackward(l.cachedIn, l.Weight.Data.Reshape(l.Out, l.In, 1, 1),
		grad.Reshape(n, l.Out, 1, 1), l.Weight.Grad.Reshape(l.Out, l.In, 1, 1), l.Bias.Grad, 1, 0)
	return gradIn.Reshape(n, l.In)
}

// Params returns weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Name returns the layer name.
func (l *Linear) Name() string { return l.name }
