package infer

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"drainnas/internal/metrics"
	"drainnas/internal/onnxsize"
	"drainnas/internal/parallel"
	"drainnas/internal/tensor"
)

// opKind enumerates the fused operations a compiled plan executes. The
// container's Conv → BatchNormalization → Relu chains collapse into a single
// opConv (BN folded into weights/bias, ReLU fused into the epilogue), and
// Add → Relu collapses into one fused residual join, so a plan runs far
// fewer ops than the graph has nodes.
type opKind uint8

const (
	opConv opKind = iota
	opRelu
	opMaxPool
	opAdd
	opGlobalAvgPool
	opFC
)

// planOp is one executable step. Inputs and output are value ids into the
// session arena; value 0 is the caller's input tensor, bound per call.
type planOp struct {
	kind opKind
	name string // originating node name, for error messages
	in   int
	in2  int // second operand of opAdd (the shortcut); -1 otherwise
	out  int

	// The geometry Compile validated, which shapes and the cost graph read
	// at both precisions. An int8 plan's opConv has no conv (qconv instead).
	conv                *tensor.PackedConv // opConv, opFC
	oc                  int                // opConv, opFC: output channels
	kernel, stride, pad int                // opConv, opMaxPool
	relu                bool               // opConv, opAdd: trailing ReLU fused into the epilogue

	// A residual join run by the epilogue of the conv that produces its
	// last operand (fuseJoins). On that opConv, joinOut is the join's output
	// value — 0 for none, as no op writes value 0 — and joinIn its other
	// operand; the opAdd stays in ops, marked fused. fp32 sessions that
	// recycle their arenas run the pair as one op; everything else (shapes,
	// the cost graph, calibration, Quantize, int8 plans) sees the op list as
	// compiled.
	joinIn, joinOut int
	fused           bool

	// Int8 payloads, set by Plan.Quantize.
	qconv  *tensor.QuantizedConv // opConv
	ra, rb float32               // opAdd: input scale ratios sa/so, sb/so
	ratio  float32               // opGlobalAvgPool: dequantizing input scale
}

// Plan is a model compiled for repeated execution: the residual topology
// resolved once into an explicit op list with precomputed buffer indices,
// BatchNorm folded into conv weights, ReLU fused into conv/add epilogues,
// and every weight pre-shaped (and lazily panel-packed) in a PackedConv.
// Each op carries its own geometry, read the same way at either precision.
// An int8 plan (Quantize) holds its convs' weights only as packed int8
// panels in QuantizedConvs; its one float weight is the classifier's.
//
// A Plan is immutable and safe to share between any number of goroutines;
// per-goroutine execution state lives in Sessions (NewSession). The
// Forward/Classify/RunBatch convenience methods draw Sessions from an
// internal pool, so a Plan is also directly usable as a concurrent executor.
type Plan struct {
	name string
	inC  int

	ops     []planOp
	numVals int
	lastUse []int // lastUse[v]: index of the last op reading value v; -1 if never read
	outVal  int

	// precision is PrecisionFP32 for compiled plans and PrecisionInt8 for
	// plans produced by Quantize; inScale is the int8 input activation scale.
	precision Precision
	inScale   float32

	sessions sync.Pool
}

// LoadPlan decodes a container and compiles it.
func LoadPlan(r io.Reader) (*Plan, error) {
	dec, err := onnxsize.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("infer: %w", err)
	}
	return Compile(dec)
}

// Compile lowers a decoded container into an execution plan. All structural
// validation happens here — weight presence and dims, channel chaining,
// attribute sanity, residual topology — so execution never re-derives any of
// it. Compile reads the exporter's conventions once: a node named
// layerS.B.conv1 opens a residual block whose input feeds the block's Add,
// optionally through a layerS.B.down.* projection.
func Compile(dec *onnxsize.Decoded) (*Plan, error) {
	c := &compiler{graph: dec.Graph, weights: dec.Weights}
	p := &Plan{name: dec.Graph.Name, inC: -1, outVal: -1, precision: PrecisionFP32}

	nodes := dec.Graph.Nodes
	cur := 0
	nextVal := 1
	// Channel count and rank per value id; -1 channels = not yet constrained
	// (only possible for the input value before the first conv).
	chans := []int{-1}
	ranks := []int{4}
	newVal := func(ch, rank int) int {
		v := nextVal
		nextVal++
		chans = append(chans, ch)
		ranks = append(ranks, rank)
		return v
	}
	blockIn, shortcut, mainPath := -1, -1, -1

	i := 0
	for i < len(nodes) {
		node := nodes[i]
		switch node.OpType {
		case "Conv":
			src := cur
			if strings.HasPrefix(node.Name, "layer") && strings.HasSuffix(node.Name, ".conv1") {
				blockIn = cur
				shortcut = -1
			}
			isDown := strings.Contains(node.Name, ".down.")
			if isDown {
				if blockIn < 0 {
					return nil, fmt.Errorf("infer: projection conv %s outside a residual block", node.Name)
				}
				mainPath = cur
				src = blockIn
			}
			if ranks[src] != 4 {
				return nil, fmt.Errorf("infer: conv %s on rank-%d value", node.Name, ranks[src])
			}
			dims := c.dims(node.Name + ".weight")
			if len(dims) != 4 {
				return nil, fmt.Errorf("infer: conv %s weight dims %v", node.Name, dims)
			}
			for _, d := range dims {
				if d <= 0 {
					return nil, fmt.Errorf("infer: conv %s non-positive weight dims %v", node.Name, dims)
				}
			}
			k, s, pad := node.Attrs["kernel"], node.Attrs["stride"], node.Attrs["pad"]
			if k != dims[2] || k != dims[3] {
				return nil, fmt.Errorf("infer: conv %s kernel attr %d vs weight dims %v", node.Name, k, dims)
			}
			if s <= 0 {
				return nil, fmt.Errorf("infer: conv %s stride %d", node.Name, s)
			}
			if ch := chans[src]; ch >= 0 && ch != dims[1] {
				return nil, fmt.Errorf("infer: conv %s input channels %d, weight wants %d", node.Name, ch, dims[1])
			}
			oc, kdim := dims[0], dims[1]*dims[2]*dims[3]
			w, err := c.tensorOf(node.Name+".weight", oc*kdim)
			if err != nil {
				return nil, err
			}
			var scale, bias []float32
			j := i + 1
			if j < len(nodes) && nodes[j].OpType == "BatchNormalization" {
				scale, bias, err = c.foldBN(nodes[j], oc)
				if err != nil {
					return nil, err
				}
				j++
			}
			// The folded weights are a copy: Compile leaves its input
			// untouched.
			wf := make([]float32, len(w))
			scaleRows(wf, w, scale, kdim)
			relu := false
			if !isDown && j < len(nodes) && nodes[j].OpType == "Relu" {
				relu = true
				j++
			}

			out := newVal(oc, 4)
			p.ops = append(p.ops, planOp{
				kind: opConv, name: node.Name, in: src, in2: -1, out: out,
				conv: tensor.NewPackedConv(tensor.FromSlice(wf, dims...), bias, s, pad, relu),
				oc:   oc, kernel: k, stride: s, pad: pad, relu: relu,
			})
			if chans[src] < 0 {
				chans[src] = dims[1]
			}
			if p.inC < 0 && chans[0] > 0 {
				p.inC = chans[0]
			}
			if isDown {
				shortcut = out
				cur = mainPath
			} else {
				cur = out
			}
			i = j

		case "BatchNormalization":
			// Every BN the exporter emits directly follows a conv and is folded
			// by the Conv case above; a BN reached here has no producer to fold
			// into.
			return nil, fmt.Errorf("infer: BatchNormalization %s not preceded by Conv", node.Name)

		case "Relu":
			out := newVal(chans[cur], ranks[cur])
			p.ops = append(p.ops, planOp{kind: opRelu, name: node.Name, in: cur, in2: -1, out: out})
			cur = out
			i++

		case "MaxPool":
			if ranks[cur] != 4 {
				return nil, fmt.Errorf("infer: MaxPool %s on rank-%d value", node.Name, ranks[cur])
			}
			k, s := node.Attrs["kernel"], node.Attrs["stride"]
			pad, ok := node.Attrs["pad"]
			if !ok {
				return nil, fmt.Errorf("infer: MaxPool %s has no pad attribute (container predates the explicit-padding exporter; re-export it)", node.Name)
			}
			if k <= 0 || s <= 0 {
				return nil, fmt.Errorf("infer: MaxPool %s with kernel=%d stride=%d", node.Name, k, s)
			}
			out := newVal(chans[cur], 4)
			p.ops = append(p.ops, planOp{
				kind: opMaxPool, name: node.Name, in: cur, in2: -1, out: out,
				kernel: k, stride: s, pad: pad,
			})
			cur = out
			i++

		case "Add":
			sc := shortcut
			if sc < 0 {
				sc = blockIn
			}
			if sc < 0 {
				return nil, fmt.Errorf("infer: Add %s without a block input", node.Name)
			}
			if ranks[cur] != ranks[sc] {
				return nil, fmt.Errorf("infer: Add %s rank mismatch %d vs %d", node.Name, ranks[cur], ranks[sc])
			}
			if chans[cur] >= 0 && chans[sc] >= 0 && chans[cur] != chans[sc] {
				return nil, fmt.Errorf("infer: Add %s channel mismatch %d vs %d", node.Name, chans[cur], chans[sc])
			}
			relu := false
			if i+1 < len(nodes) && nodes[i+1].OpType == "Relu" {
				relu = true
				i++
			}
			out := newVal(chans[cur], ranks[cur])
			p.ops = append(p.ops, planOp{kind: opAdd, name: node.Name, in: cur, in2: sc, out: out, relu: relu})
			cur = out
			blockIn, shortcut, mainPath = -1, -1, -1
			i++

		case "GlobalAveragePool":
			if ranks[cur] != 4 {
				return nil, fmt.Errorf("infer: GlobalAveragePool %s on rank-%d value", node.Name, ranks[cur])
			}
			out := newVal(chans[cur], 2)
			p.ops = append(p.ops, planOp{kind: opGlobalAvgPool, name: node.Name, in: cur, in2: -1, out: out})
			cur = out
			i++

		case "Gemm":
			dims := c.dims(node.Name + ".weight")
			if len(dims) != 2 {
				return nil, fmt.Errorf("infer: gemm %s weight dims %v", node.Name, dims)
			}
			outF, inF := dims[0], dims[1]
			if outF <= 0 || inF <= 0 {
				return nil, fmt.Errorf("infer: gemm %s non-positive weight dims %v", node.Name, dims)
			}
			w, err := c.tensorOf(node.Name+".weight", outF*inF)
			if err != nil {
				return nil, err
			}
			b, err := c.tensorOf(node.Name+".bias", outF)
			if err != nil {
				return nil, err
			}
			if ranks[cur] != 2 {
				return nil, fmt.Errorf("infer: gemm %s on rank-%d value, want 2", node.Name, ranks[cur])
			}
			if ch := chans[cur]; ch >= 0 && ch != inF {
				return nil, fmt.Errorf("infer: gemm %s input features %d, weight wants %d", node.Name, ch, inF)
			}
			out := newVal(outF, 2)
			// The (OUT, IN) weight runs as a 1×1 pointwise conv over
			// (N, IN, 1, 1): no per-call transpose, and the panel pack is
			// built once and kept.
			p.ops = append(p.ops, planOp{
				kind: opFC, name: node.Name, in: cur, in2: -1, out: out,
				conv: tensor.NewPackedConv(tensor.FromSlice(w, outF, inF, 1, 1), b, 1, 0, false),
				oc:   outF,
			})
			cur = out
			i++

		default:
			return nil, fmt.Errorf("infer: unsupported op %q (node %s)", node.OpType, node.Name)
		}
	}

	if len(p.ops) == 0 {
		return nil, fmt.Errorf("infer: container graph has no nodes")
	}
	if p.inC <= 0 {
		return nil, fmt.Errorf("infer: container has no Conv constraining the input channels")
	}
	if ranks[cur] != 2 {
		return nil, fmt.Errorf("infer: graph ends with a rank-%d value, want (N, classes)", ranks[cur])
	}
	p.outVal = cur
	p.numVals = nextVal

	p.lastUse = make([]int, p.numVals)
	for v := range p.lastUse {
		p.lastUse[v] = -1
	}
	for idx := range p.ops {
		op := &p.ops[idx]
		p.lastUse[op.in] = idx
		if op.in2 >= 0 {
			p.lastUse[op.in2] = idx
		}
	}
	p.fuseJoins()
	metrics.Infer.PlanCompiled()
	return p, nil
}

// fuseJoins hands each residual join (Add→ReLU) to the epilogue of the conv
// that produces whichever of its operands comes second — conv2 of an
// identity block, the projection (down.conv) of a downsampling one — when
// the join is the only op reading that conv's output. The conv then writes
// (acc + bias) + other, which is the join's a + b bit for bit (float
// addition commutes), and the join's sweep over three tensors goes away.
func (p *Plan) fuseJoins() {
	producer := make([]int, p.numVals)
	readers := make([]int, p.numVals)
	for idx := range p.ops {
		op := &p.ops[idx]
		producer[op.out] = idx
		readers[op.in]++
		if op.in2 >= 0 {
			readers[op.in2]++
		}
	}
	for idx := range p.ops {
		add := &p.ops[idx]
		if add.kind != opAdd || !add.relu || add.in == add.in2 {
			continue
		}
		last, other := add.in, add.in2
		if add.in2 > 0 && (add.in == 0 || producer[add.in2] > producer[add.in]) {
			last, other = add.in2, add.in
		}
		conv := &p.ops[producer[last]]
		if conv.kind != opConv || readers[last] != 1 {
			continue
		}
		conv.joinIn, conv.joinOut = other, add.out
		add.fused = true
	}
}

// compiler bundles read-only access to the decoded container during Compile.
type compiler struct {
	graph   onnxsize.GraphSpec
	weights map[string][]float32
}

func (c *compiler) dims(name string) []int {
	for _, init := range c.graph.Initializers {
		if init.Name == name {
			return init.Dims
		}
	}
	return nil
}

func (c *compiler) tensorOf(name string, wantLen int) ([]float32, error) {
	v, ok := c.weights[name]
	if !ok {
		return nil, fmt.Errorf("infer: missing initializer %s", name)
	}
	if wantLen > 0 && len(v) != wantLen {
		return nil, fmt.Errorf("infer: initializer %s has %d values, want %d", name, len(v), wantLen)
	}
	return v, nil
}

// foldBN reads a BatchNormalization node as the per-output-channel scale
// and bias it folds into the preceding conv: w' = w·γ/√(σ²+ε),
// b' = β − γ·μ/√(σ²+ε). The scale and shift are formed in float64, as the
// training stack's eval-mode BatchNorm forms them.
func (c *compiler) foldBN(node onnxsize.NodeSpec, oc int) (scale, bias []float32, err error) {
	gamma, err := c.tensorOf(node.Name+".gamma", oc)
	if err != nil {
		return nil, nil, err
	}
	beta, err := c.tensorOf(node.Name+".beta", oc)
	if err != nil {
		return nil, nil, err
	}
	mean, err := c.tensorOf(node.Name+".running_mean", oc)
	if err != nil {
		return nil, nil, err
	}
	variance, err := c.tensorOf(node.Name+".running_var", oc)
	if err != nil {
		return nil, nil, err
	}
	eps := float64(node.Attrs["epsilon_e9"]) * 1e-9
	if eps <= 0 {
		eps = 1e-5
	}
	scale, bias = make([]float32, oc), make([]float32, oc)
	for ch := 0; ch < oc; ch++ {
		invSD := 1.0 / math.Sqrt(float64(variance[ch])+eps)
		scale[ch] = float32(float64(gamma[ch]) * invSD)
		bias[ch] = float32(float64(beta[ch]) - float64(gamma[ch])*float64(mean[ch])*invSD)
	}
	return scale, bias, nil
}

// scaleRows writes dst = src with row ch of kdim values multiplied by
// scale[ch] — a plain copy when scale is nil — in one pass, rows split
// across the worker pool.
func scaleRows(dst, src, scale []float32, kdim int) {
	parallel.ForChunked(len(src)/kdim, 0, func(lo, hi int) {
		if scale == nil {
			copy(dst[lo*kdim:hi*kdim], src[lo*kdim:hi*kdim])
			return
		}
		for ch := lo; ch < hi; ch++ {
			s, out := scale[ch], dst[ch*kdim:(ch+1)*kdim]
			for i, v := range src[ch*kdim : (ch+1)*kdim] {
				out[i] = v * s
			}
		}
	})
}

// Name returns the compiled graph's name.
func (p *Plan) Name() string { return p.name }

// InputChannels returns the channel count the model expects.
func (p *Plan) InputChannels() int { return p.inC }

// Precision returns the plan's numeric mode. Plans predating the field
// (zero value) are fp32.
func (p *Plan) Precision() Precision {
	if p.precision == "" {
		return PrecisionFP32
	}
	return p.precision
}

// OpCount returns the number of fused ops the plan executes per forward —
// observably smaller than the node count thanks to Conv+BN+ReLU and
// Add+ReLU fusion.
func (p *Plan) OpCount() int { return len(p.ops) }

// getSession draws a pooled session (creating one on demand) for the
// convenience executors; putSession returns it, keeping its arenas warm.
func (p *Plan) getSession() *Session {
	if s, ok := p.sessions.Get().(*Session); ok {
		return s
	}
	return p.NewSession()
}

func (p *Plan) putSession(s *Session) { p.sessions.Put(s) }

// Forward executes the plan on an (N, C, H, W) input and returns a freshly
// allocated (N, classes) logits tensor. It draws a pooled session, so it is
// safe for concurrent use; latency-critical callers that can keep a session
// per goroutine should use NewSession and Session.Forward, which returns
// arena-owned logits without the copy.
func (p *Plan) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	s := p.getSession()
	defer p.putSession(s)
	logits, err := s.Forward(x)
	if err != nil {
		return nil, err
	}
	out := tensor.New(logits.Shape()...)
	copy(out.Data(), logits.Data())
	return out, nil
}

// Classify runs Forward and returns the argmax class per sample.
func (p *Plan) Classify(x *tensor.Tensor) ([]int, error) {
	s := p.getSession()
	defer p.putSession(s)
	return s.Classify(x)
}
