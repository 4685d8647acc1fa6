package tensor

import "fmt"

// convShape is the geometry of a convolution with fixed weights, shared by
// its float (PackedConv) and int8 (QuantizedConv) forms: output and input
// channels, filter extent, stride, padding, and whether a ReLU is fused into
// the epilogue.
type convShape struct {
	oc, c, kh, kw int
	stride, pad   int
	relu          bool
}

// newConvShape validates a constructor's weight (OC, C, KH, KW), bias (nil
// or length OC), stride and padding; who names the constructor in panics.
func newConvShape(who string, weight *Tensor, bias []float32, stride, pad int, relu bool) convShape {
	if weight.NDim() != 4 { // dims4's panic, without building its label on every call
		panic(fmt.Sprintf("tensor: %s weight wants a 4-D tensor, got shape %v", who, weight.shape))
	}
	oc, c, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	if bias != nil && len(bias) != oc {
		panic(fmt.Sprintf("tensor: %s bias length %d, want %d", who, len(bias), oc))
	}
	if stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("tensor: %s stride=%d pad=%d", who, stride, pad))
	}
	return convShape{oc: oc, c: c, kh: kh, kw: kw, stride: stride, pad: pad, relu: relu}
}

// OutSize returns the output spatial size for an H×W input.
func (s *convShape) OutSize(h, w int) (oh, ow int) {
	return ConvOut(h, s.kh, s.stride, s.pad), ConvOut(w, s.kw, s.stride, s.pad)
}

// geom is the lowering of the convolution over n H×W images.
func (s *convShape) geom(n, h, w int) convGeom {
	oh, ow := s.OutSize(h, w)
	return convGeom{
		n: n, c: s.c, h: h, w: w, kh: s.kh, kw: s.kw,
		stride: s.stride, padY: s.pad, padX: s.pad, oh: oh, ow: ow,
	}
}

// PackedConv is a convolution prepared once and executed many times: the
// weight tensor is reshaped and validated at construction, its GEMM A-panels
// are packed lazily on first use and then kept for the lifetime of the
// value, and bias addition plus an optional trailing ReLU are fused into the
// convolution epilogue. It is the execution unit of compiled inference plans
// (internal/infer), where the same weights run on every request: with a
// per-call Conv2D the sync.Once pack amortizes only across one batch, while
// a PackedConv amortizes it across the process lifetime. A 3×3 stride-1
// pad-1 convolution runs on Winograd F(2×2, 3×3) instead wherever the
// shape rule admits it (see Winograd and winograd.go), its filters
// transformed on the first such call and kept the same way. Quantize
// derives its int8 form, which keeps nothing of the float one.
//
// A PackedConv is immutable after construction and safe for concurrent use.
// The weight tensor (and bias slice) must not be modified afterwards — the
// pack holds references, not copies, until first use packs the panels.
type PackedConv struct {
	convShape
	bias []float32
	wp   *weightPack // wp.src is the (OC, C·KH·KW) row-major weight
	wino *winoPack   // 3×3 stride-1 pad-1 only: the Winograd filters
}

// NewPackedConv prepares a convolution with fixed weight (OC, C, KH, KW),
// optional bias (nil or length OC), stride, padding, and an optional fused
// ReLU epilogue. A fully-connected layer is the degenerate case: reshape its
// (OUT, IN) weight to (OUT, IN, 1, 1) and feed (N, IN, 1, 1) inputs — the
// same lowering nn.Linear trains on, with no per-call transpose or
// repacking.
func NewPackedConv(weight *Tensor, bias []float32, stride, pad int, relu bool) *PackedConv {
	pc := &PackedConv{convShape: newConvShape("NewPackedConv", weight, bias, stride, pad, relu), bias: bias}
	kdim := pc.c * pc.kh * pc.kw
	pc.wp = newWeightPack(weight.data, kdim, pc.oc, kdim)
	if pc.kh == 3 && pc.kw == 3 && stride == 1 && pad == 1 {
		pc.wino = &winoPack{src: weight.data, oc: pc.oc, c: pc.c}
	}
	return pc
}

// Quantize returns the int8 form of the convolution (see NewQuantizedConv):
// its weights quantized per output channel and packed, its input
// activations at symmetric scale inScale and its output at outScale.
func (pc *PackedConv) Quantize(inScale, outScale float32) *QuantizedConv {
	return newQuantizedConv(pc.convShape, pc.wp.src, pc.bias, inScale, outScale)
}

// Winograd reports whether an H×W input runs on the Winograd F(2×2, 3×3)
// path (winograd.go) rather than the direct one. The answer depends on the
// layer's shape and the host's kernel alone, never on the batch.
func (pc *PackedConv) Winograd(h, w int) bool {
	return pc.wino != nil && winoTakes(pc.c, h, w)
}

// ForwardInto convolves input (N, C, H, W) into the caller-provided out
// (N, OC, OH, OW), applying the fused bias/ReLU epilogue. A non-nil join, of
// out's shape, is a residual join fused into the same epilogue: out =
// conv(input) + join, then a ReLU that maps v < 0 to 0 — bit for bit the
// convolution into a tensor of its own followed by AddReLUInto. out must not
// alias input. It allocates nothing beyond pooled scratch, so a steady-state
// caller that reuses its output tensors runs allocation-free.
func (pc *PackedConv) ForwardInto(out, input, join *Tensor) {
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
	if join != nil && !join.SameShape(out) {
		panic(fmt.Sprintf("tensor: PackedConv join shape %v, want %v", join.shape, out.shape))
	}
	if pc.Winograd(h, w) {
		winoInto(out, input, pc.wino, pc.bias, pc.relu, join)
		return
	}
	convInto(out, input, pc.wp, pc.bias, &pc.convShape, join)
}
