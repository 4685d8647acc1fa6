package nn

import (
	"fmt"

	"drainnas/internal/tensor"
)

// BasicBlock is the ResNet-18/34 residual unit:
//
//	main:     conv3x3(stride) → BN → ReLU → conv3x3(1) → BN
//	shortcut: identity, or conv1x1(stride) → BN when shape changes
//	out:      ReLU(main + shortcut)
type BasicBlock struct {
	name string

	Conv1 *Conv2d
	BN1   *BatchNorm2d
	Conv2 *Conv2d
	BN2   *BatchNorm2d

	// Downsample projects the shortcut when stride != 1 or channels change;
	// nil for an identity shortcut.
	DownConv *Conv2d
	DownBN   *BatchNorm2d

	relu1 *ReLU

	cachedOut *tensor.Tensor // ReLU(main + shortcut): > 0 exactly where the sum is
}

// NewBasicBlock builds a residual block mapping inC channels to outC with
// the given stride on the first convolution.
func NewBasicBlock(name string, rng *tensor.RNG, inC, outC, stride int) *BasicBlock {
	b := &BasicBlock{
		name:  name,
		Conv1: NewConv2d(name+".conv1", rng, inC, outC, 3, stride, 1),
		BN1:   NewBatchNorm2d(name+".bn1", outC),
		Conv2: NewConv2d(name+".conv2", rng, outC, outC, 3, 1, 1),
		BN2:   NewBatchNorm2d(name+".bn2", outC),
		relu1: NewReLU(name + ".relu1"),
	}
	if stride != 1 || inC != outC {
		b.DownConv = NewConv2d(name+".down.conv", rng, inC, outC, 1, stride, 0)
		b.DownBN = NewBatchNorm2d(name+".down.bn", outC)
	}
	return b
}

// Forward runs the residual computation.
func (b *BasicBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := b.Conv1.Forward(x, train)
	main = b.BN1.Forward(main, train)
	main = b.relu1.Forward(main, train)
	main = b.Conv2.Forward(main, train)
	main = b.BN2.Forward(main, train)

	shortcut := x
	if b.DownConv != nil {
		shortcut = b.DownConv.Forward(x, train)
		shortcut = b.DownBN.Forward(shortcut, train)
	}
	out := tensor.New(main.Shape()...)
	tensor.AddReLUInto(out, main, shortcut)
	if train {
		b.cachedOut = out
	} else {
		b.cachedOut = nil
	}
	return out
}

// Backward splits the gradient between the main and shortcut branches.
func (b *BasicBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.cachedOut == nil {
		panic(fmt.Sprintf("nn: %s Backward without a training Forward", b.name))
	}
	g := tensor.ReLUBackward(grad, b.cachedOut)

	// Main branch, reverse order.
	gm := b.BN2.Backward(g)
	gm = b.Conv2.Backward(gm)
	gm = b.relu1.Backward(gm)
	gm = b.BN1.Backward(gm)
	gm = b.Conv1.Backward(gm)

	// Shortcut branch.
	gs := g
	if b.DownConv != nil {
		gs = b.DownBN.Backward(gs)
		gs = b.DownConv.Backward(gs)
	}
	tensor.AddInto(gm, gm, gs)
	return gm
}

// Params returns all learnable parameters of the block.
func (b *BasicBlock) Params() []*Param {
	ps := append(b.Conv1.Params(), b.BN1.Params()...)
	ps = append(ps, b.Conv2.Params()...)
	ps = append(ps, b.BN2.Params()...)
	if b.DownConv != nil {
		ps = append(ps, b.DownConv.Params()...)
		ps = append(ps, b.DownBN.Params()...)
	}
	return ps
}

// Name returns the block name.
func (b *BasicBlock) Name() string { return b.name }
