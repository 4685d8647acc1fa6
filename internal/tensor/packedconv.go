package tensor

import "fmt"

// PackedConv is a convolution prepared once and executed many times: the
// weight tensor is reshaped and validated at construction, its GEMM A-panels
// are packed lazily on first use and then kept for the lifetime of the
// value, and bias addition plus an optional trailing ReLU are fused into the
// convolution epilogue. It is the execution unit of compiled inference plans
// (internal/infer), where the same weights run on every request: with a
// per-call Conv2D the sync.Once pack amortizes only across one batch, while
// a PackedConv amortizes it across the process lifetime.
//
// A PackedConv is immutable after construction and safe for concurrent use.
// The weight tensor (and bias slice) must not be modified afterwards — the
// pack holds references, not copies, until first use packs the panels.
type PackedConv struct {
	weight *Tensor // (OC, C, KH, KW); retained to keep wp.src reachable
	bias   []float32
	wp     *weightPack

	oc, c, kh, kw int
	stride, pad   int
	relu          bool
}

// NewPackedConv prepares a convolution with fixed weight (OC, C, KH, KW),
// optional bias (nil or length OC), stride, padding, and an optional fused
// ReLU epilogue. A fully-connected layer is the degenerate case: reshape its
// (OUT, IN) weight to (OUT, IN, 1, 1) and feed (N, IN, 1, 1) inputs — the
// pointwise fast path then runs it as a plain matmul with no per-call
// transpose or repacking.
func NewPackedConv(weight *Tensor, bias []float32, stride, pad int, relu bool) *PackedConv {
	oc, c, kh, kw := dims4("NewPackedConv weight", weight)
	if bias != nil && len(bias) != oc {
		panic(fmt.Sprintf("tensor: NewPackedConv bias length %d, want %d", len(bias), oc))
	}
	if stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("tensor: NewPackedConv stride=%d pad=%d", stride, pad))
	}
	kdim := c * kh * kw
	wmat := weight.Reshape(oc, kdim)
	return &PackedConv{
		weight: weight, bias: bias,
		wp: newWeightPack(wmat.data, kdim, oc, kdim),
		oc: oc, c: c, kh: kh, kw: kw,
		stride: stride, pad: pad, relu: relu,
	}
}

// OutChannels returns the output channel count.
func (pc *PackedConv) OutChannels() int { return pc.oc }

// OutSize returns the output spatial size for an H×W input.
func (pc *PackedConv) OutSize(h, w int) (oh, ow int) {
	return ConvOut(h, pc.kh, pc.stride, pc.pad), ConvOut(w, pc.kw, pc.stride, pc.pad)
}

// KernelSize returns the filter's spatial extent (KH, KW).
func (pc *PackedConv) KernelSize() (kh, kw int) { return pc.kh, pc.kw }

// Stride returns the convolution stride.
func (pc *PackedConv) Stride() int { return pc.stride }

// Pad returns the spatial zero-padding applied to each border.
func (pc *PackedConv) Pad() int { return pc.pad }

// HasReLU reports whether a ReLU epilogue is fused into the convolution.
func (pc *PackedConv) HasReLU() bool { return pc.relu }

// Weights returns the (OC, C, KH, KW) weight tensor. Callers must treat it
// as read-only; the PTQ pass (internal/infer) reads it to derive the int8
// form of a compiled plan.
func (pc *PackedConv) Weights() *Tensor { return pc.weight }

// Bias returns the bias slice (nil when the convolution has none), also
// read-only.
func (pc *PackedConv) Bias() []float32 { return pc.bias }

// ForwardInto convolves input (N, C, H, W) into the caller-provided out
// (N, OC, OH, OW), applying the fused bias/ReLU epilogue. out must not alias
// input. It allocates nothing beyond pooled scratch, so a steady-state
// caller that reuses its output tensors runs allocation-free.
func (pc *PackedConv) ForwardInto(out, input *Tensor) {
	n, c, h, w := dims4("PackedConv input", input)
	on, oc, oh, ow := dims4("PackedConv out", out)
	if c != pc.c {
		panic(fmt.Sprintf("tensor: PackedConv input has %d channels, want %d", c, pc.c))
	}
	eh, ew := pc.OutSize(h, w)
	if on != n || oc != pc.oc || oh != eh || ow != ew {
		panic(fmt.Sprintf("tensor: PackedConv out shape %v, want [%d %d %d %d]", out.shape, n, pc.oc, eh, ew))
	}
	if eh <= 0 || ew <= 0 {
		panic(fmt.Sprintf("tensor: PackedConv produces empty output for input %dx%d", h, w))
	}
	convInto(out, input, pc.wp, pc.bias, pc.relu, pc.kh, pc.kw, pc.stride, pc.pad)
}
