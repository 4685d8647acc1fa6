package nn

import (
	"fmt"

	"drainnas/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	name        string
	cachedInput *tensor.Tensor
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Forward applies max(x, 0).
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		r.cachedInput = x
	} else {
		r.cachedInput = nil
	}
	out := tensor.New(x.Shape()...)
	tensor.ReLUInto(out, x)
	return out
}

// Backward masks the gradient by the sign of the cached input.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.cachedInput == nil {
		panic(fmt.Sprintf("nn: %s Backward without a training Forward", r.name))
	}
	return tensor.ReLUBackward(grad, r.cachedInput)
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Name returns the layer name.
func (r *ReLU) Name() string { return r.name }

// MaxPool2d is a square max-pooling layer. It pools with
// tensor.MaxPool2DInto, as the compiled plans do, and sends each gradient to
// the first window tap, in row-major order, that equals the pooled value.
type MaxPool2d struct {
	name                string
	Kernel, Stride, Pad int

	cachedInput, cachedOutput *tensor.Tensor
}

// NewMaxPool2d constructs a max-pool layer.
func NewMaxPool2d(name string, kernel, stride, pad int) *MaxPool2d {
	if kernel <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid MaxPool2d geometry k=%d s=%d p=%d", kernel, stride, pad))
	}
	return &MaxPool2d{name: name, Kernel: kernel, Stride: stride, Pad: pad}
}

// Forward pools x, keeping input and output for backward when training.
func (m *MaxPool2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkShape(m.name, x, -1, -1, -1, -1)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := tensor.New(n, c, tensor.ConvOut(h, m.Kernel, m.Stride, m.Pad), tensor.ConvOut(w, m.Kernel, m.Stride, m.Pad))
	tensor.MaxPool2DInto(out, x, m.Kernel, m.Stride, m.Pad)
	m.cachedInput, m.cachedOutput = nil, nil
	if train {
		m.cachedInput, m.cachedOutput = x, out
	}
	return out
}

// Backward routes each gradient to its window's max tap.
func (m *MaxPool2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.cachedInput == nil {
		panic(fmt.Sprintf("nn: %s Backward without a training Forward", m.name))
	}
	return tensor.MaxPool2DBackward(grad, m.cachedInput, m.cachedOutput, m.Kernel, m.Stride, m.Pad)
}

// Params returns nil; pooling has no parameters.
func (m *MaxPool2d) Params() []*Param { return nil }

// Name returns the layer name.
func (m *MaxPool2d) Name() string { return m.name }

// GlobalAvgPool reduces (N, C, H, W) to (N, C) by averaging each plane —
// ResNet's adaptive average pooling to 1×1 plus flatten, fused.
type GlobalAvgPool struct {
	name        string
	cachedShape []int
}

// NewGlobalAvgPool constructs the layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Forward averages spatial planes.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkShape(g.name, x, -1, -1, -1, -1)
	if train {
		g.cachedShape = x.Shape()
	} else {
		g.cachedShape = nil
	}
	out := tensor.New(x.Dim(0), x.Dim(1))
	tensor.GlobalAvgPool2DInto(out, x)
	return out
}

// Backward spreads gradients uniformly over the spatial planes.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if g.cachedShape == nil {
		panic(fmt.Sprintf("nn: %s Backward without a training Forward", g.name))
	}
	return tensor.GlobalAvgPool2DBackward(grad, g.cachedShape)
}

// Params returns nil.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Name returns the layer name.
func (g *GlobalAvgPool) Name() string { return g.name }
