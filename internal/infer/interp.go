package infer

import (
	"fmt"
	"math"
	"strings"

	"drainnas/internal/onnxsize"
	"drainnas/internal/tensor"
)

// interpreter is the original per-call graph interpreter, kept as the
// differential oracle for the compiled plan (the three-way parity tests) and
// as the "before" baseline the infer benchmarks measure the compiler
// against. It re-derives residual topology from node names on every call,
// runs BatchNorm as a separate pass and allocates a fresh tensor per op —
// exactly the costs Compile removes. Nothing outside this package's tests
// runs it.
type interpreter struct{ dec *onnxsize.Decoded }

func newInterpreter(dec *onnxsize.Decoded) *interpreter { return &interpreter{dec: dec} }

// forward executes the graph on an (N, C, H, W) input by walking the node
// list, returning the (N, classes) logits. A channel mismatch is the first
// convolution's to report.
func (rt *interpreter) forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.NDim() != 4 {
		return nil, fmt.Errorf("infer: input must be (N,C,H,W), got %v", x.Shape())
	}
	cur := x
	var blockIn *tensor.Tensor // input of the residual block in flight
	var mainPath *tensor.Tensor
	var shortcut *tensor.Tensor
	var err error

	for _, node := range rt.dec.Graph.Nodes {
		switch node.OpType {
		case "Conv":
			src := cur
			if strings.HasSuffix(node.Name, ".conv1") && strings.HasPrefix(node.Name, "layer") {
				// First conv of a residual block: remember the block input.
				blockIn = cur
				shortcut = nil
			}
			if strings.Contains(node.Name, ".down.") {
				// Projection shortcut operates on the block input; stash the
				// main path result first.
				mainPath = cur
				src = blockIn
			}
			cur, err = rt.conv(node, src)
			if err != nil {
				return nil, err
			}
		case "BatchNormalization":
			cur, err = rt.batchNorm(node, cur)
			if err != nil {
				return nil, err
			}
			if strings.Contains(node.Name, ".down.") {
				shortcut = cur
				cur = mainPath
			}
		case "Relu":
			cur = tensor.ReLU(cur)
		case "MaxPool":
			k := node.Attrs["kernel"]
			s := node.Attrs["stride"]
			pad, ok := node.Attrs["pad"]
			if !ok {
				return nil, fmt.Errorf("infer: MaxPool %s has no pad attribute", node.Name)
			}
			if k <= 0 || s <= 0 {
				return nil, fmt.Errorf("infer: MaxPool %s with kernel=%d stride=%d", node.Name, k, s)
			}
			cur, _ = tensor.MaxPool2D(cur, k, s, pad)
		case "Add":
			sc := shortcut
			if sc == nil {
				sc = blockIn
			}
			if sc == nil {
				return nil, fmt.Errorf("infer: Add %s without a block input", node.Name)
			}
			if !cur.SameShape(sc) {
				return nil, fmt.Errorf("infer: Add %s shape mismatch %v vs %v", node.Name, cur.Shape(), sc.Shape())
			}
			cur = tensor.Add(cur, sc)
			blockIn, shortcut, mainPath = nil, nil, nil
		case "GlobalAveragePool":
			cur = tensor.GlobalAvgPool2D(cur)
		case "Gemm":
			cur, err = rt.gemm(node, cur)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("infer: unsupported op %q (node %s)", node.OpType, node.Name)
		}
	}
	if cur.NDim() != 2 {
		return nil, fmt.Errorf("infer: graph ended with shape %v, want (N, classes)", cur.Shape())
	}
	return cur, nil
}

func (rt *interpreter) initializerDims(name string) []int {
	for _, init := range rt.dec.Graph.Initializers {
		if init.Name == name {
			return init.Dims
		}
	}
	return nil
}

func (rt *interpreter) tensorOf(name string, wantLen int) ([]float32, error) {
	v, ok := rt.dec.Weights[name]
	if !ok {
		return nil, fmt.Errorf("infer: missing initializer %s", name)
	}
	if wantLen > 0 && len(v) != wantLen {
		return nil, fmt.Errorf("infer: initializer %s has %d values, want %d", name, len(v), wantLen)
	}
	return v, nil
}

func (rt *interpreter) conv(node onnxsize.NodeSpec, x *tensor.Tensor) (*tensor.Tensor, error) {
	dims := rt.initializerDims(node.Name + ".weight")
	if len(dims) != 4 {
		return nil, fmt.Errorf("infer: conv %s weight dims %v", node.Name, dims)
	}
	w, err := rt.tensorOf(node.Name+".weight", dims[0]*dims[1]*dims[2]*dims[3])
	if err != nil {
		return nil, err
	}
	k, s, p := node.Attrs["kernel"], node.Attrs["stride"], node.Attrs["pad"]
	if k != dims[2] || k != dims[3] {
		return nil, fmt.Errorf("infer: conv %s kernel attr %d vs weight dims %v", node.Name, k, dims)
	}
	if s <= 0 {
		return nil, fmt.Errorf("infer: conv %s stride %d", node.Name, s)
	}
	if x.Dim(1) != dims[1] {
		return nil, fmt.Errorf("infer: conv %s input channels %d, weight wants %d", node.Name, x.Dim(1), dims[1])
	}
	weight := tensor.FromSlice(w, dims...)
	return tensor.Conv2D(x, weight, nil, s, p), nil
}

func (rt *interpreter) batchNorm(node onnxsize.NodeSpec, x *tensor.Tensor) (*tensor.Tensor, error) {
	c := x.Dim(1)
	gamma, err := rt.tensorOf(node.Name+".gamma", c)
	if err != nil {
		return nil, err
	}
	beta, err := rt.tensorOf(node.Name+".beta", c)
	if err != nil {
		return nil, err
	}
	mean, err := rt.tensorOf(node.Name+".running_mean", c)
	if err != nil {
		return nil, err
	}
	variance, err := rt.tensorOf(node.Name+".running_var", c)
	if err != nil {
		return nil, err
	}
	eps := float64(node.Attrs["epsilon_e9"]) * 1e-9
	if eps <= 0 {
		eps = 1e-5
	}
	n, _, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	plane := h * w
	out := tensor.New(n, c, h, w)
	for ch := 0; ch < c; ch++ {
		invSD := 1.0 / math.Sqrt(float64(variance[ch])+eps)
		scale := float32(float64(gamma[ch]) * invSD)
		shift := float32(float64(beta[ch]) - float64(gamma[ch])*float64(mean[ch])*invSD)
		for s := 0; s < n; s++ {
			src := x.Data()[(s*c+ch)*plane : (s*c+ch+1)*plane]
			dst := out.Data()[(s*c+ch)*plane : (s*c+ch+1)*plane]
			for i, v := range src {
				dst[i] = v*scale + shift
			}
		}
	}
	return out, nil
}

func (rt *interpreter) gemm(node onnxsize.NodeSpec, x *tensor.Tensor) (*tensor.Tensor, error) {
	dims := rt.initializerDims(node.Name + ".weight")
	if len(dims) != 2 {
		return nil, fmt.Errorf("infer: gemm %s weight dims %v", node.Name, dims)
	}
	out, in := dims[0], dims[1]
	w, err := rt.tensorOf(node.Name+".weight", out*in)
	if err != nil {
		return nil, err
	}
	b, err := rt.tensorOf(node.Name+".bias", out)
	if err != nil {
		return nil, err
	}
	if x.NDim() != 2 || x.Dim(1) != in {
		return nil, fmt.Errorf("infer: gemm %s input %v, want (N,%d)", node.Name, x.Shape(), in)
	}
	weight := tensor.FromSlice(w, out, in)
	res := tensor.MatMul(x, tensor.Transpose2D(weight))
	n := x.Dim(0)
	for r := 0; r < n; r++ {
		row := res.Data()[r*out : (r+1)*out]
		for j := range row {
			row[j] += b[j]
		}
	}
	return res, nil
}
