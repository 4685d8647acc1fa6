// Package onnxsize measures the paper's third objective: model memory,
// defined as the size of the ONNX serialization of the network ("the memory
// requirement to store the model in the onnx file format", Table 4).
//
// The package implements a compact ONNX-like binary container — a graph
// header, one record per node with its attributes, and one initializer
// record per weight tensor with raw fp32 payload — and reports its size.
// The payload dominates (4 bytes per parameter), so the stock ResNet-18
// lands at ≈44.7 MB and the narrow (32-feature) variants at ≈11.2 MB,
// matching Tables 4 and 5.
package onnxsize

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"drainnas/internal/nn"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// NodeSpec is one operator in the exported graph.
type NodeSpec struct {
	OpType string
	Name   string
	// Attrs are small integer attributes (kernel, stride, padding, ...).
	Attrs map[string]int
}

// InitializerSpec is one weight tensor: a name, dims, and a payload of
// 4-byte floats (the values themselves do not affect size).
type InitializerSpec struct {
	Name string
	Dims []int
}

// Numel returns the tensor's element count.
func (s InitializerSpec) Numel() int {
	n := 1
	for _, d := range s.Dims {
		n *= d
	}
	return n
}

// GraphSpec is the exportable description of a model.
type GraphSpec struct {
	Name         string
	Nodes        []NodeSpec
	Initializers []InitializerSpec
}

// BuildGraphSpec lowers a ResNet configuration to its exported graph:
// the node list mirrors the runtime ops (Conv, BatchNormalization, Relu,
// MaxPool, Add, GlobalAveragePool, Gemm) and the initializers carry every
// parameter tensor including BatchNorm running statistics, as a real ONNX
// export does.
func BuildGraphSpec(cfg resnet.Config) (GraphSpec, error) {
	if err := cfg.Validate(); err != nil {
		return GraphSpec{}, err
	}
	w := cfg.StageWidths()
	// The graph name carries only architectural identity: batch size is a
	// runtime choice and must not perturb the serialized size.
	arch := cfg.Canonical()
	arch.Batch = 1
	g := GraphSpec{Name: "resnet18-" + arch.Key()}

	addConv := func(name string, inC, outC, k, s, p int) {
		g.Nodes = append(g.Nodes, NodeSpec{OpType: "Conv", Name: name,
			Attrs: map[string]int{"kernel": k, "stride": s, "pad": p}})
		g.Initializers = append(g.Initializers,
			InitializerSpec{Name: name + ".weight", Dims: []int{outC, inC, k, k}})
	}
	addBN := func(name string, c int) {
		g.Nodes = append(g.Nodes, NodeSpec{OpType: "BatchNormalization", Name: name,
			Attrs: map[string]int{"epsilon_e9": 10000}})
		for _, suffix := range []string{".gamma", ".beta", ".running_mean", ".running_var"} {
			g.Initializers = append(g.Initializers,
				InitializerSpec{Name: name + suffix, Dims: []int{c}})
		}
	}
	addRelu := func(name string) {
		g.Nodes = append(g.Nodes, NodeSpec{OpType: "Relu", Name: name, Attrs: map[string]int{}})
	}

	addConv("conv1", cfg.Channels, w[0], cfg.KernelSize, cfg.Stride, cfg.Padding)
	addBN("bn1", w[0])
	addRelu("relu1")
	if cfg.PoolChoice == 1 {
		// The pad attribute mirrors resnet.New's convention (kernel >= 3 pads
		// by 1, smaller kernels pad 0) so the runtime reads the real padding
		// instead of guessing it back from the kernel size.
		poolPad := 0
		if cfg.KernelSizePool >= 3 {
			poolPad = 1
		}
		g.Nodes = append(g.Nodes, NodeSpec{OpType: "MaxPool", Name: "maxpool",
			Attrs: map[string]int{"kernel": cfg.KernelSizePool, "stride": cfg.StridePool, "pad": poolPad}})
	}

	inC := w[0]
	for stage := 0; stage < 4; stage++ {
		outC := w[stage]
		stride := 1
		if stage > 0 {
			stride = 2
		}
		for block := 0; block < 2; block++ {
			bs, bInC := stride, inC
			if block == 1 {
				bs, bInC = 1, outC
			}
			name := fmt.Sprintf("layer%d.%d", stage+1, block)
			addConv(name+".conv1", bInC, outC, 3, bs, 1)
			addBN(name+".bn1", outC)
			addRelu(name + ".relu1")
			addConv(name+".conv2", outC, outC, 3, 1, 1)
			addBN(name+".bn2", outC)
			if bs != 1 || bInC != outC {
				addConv(name+".down.conv", bInC, outC, 1, bs, 0)
				addBN(name+".down.bn", outC)
			}
			g.Nodes = append(g.Nodes, NodeSpec{OpType: "Add", Name: name + ".add", Attrs: map[string]int{}})
			addRelu(name + ".relu2")
		}
		inC = outC
	}

	g.Nodes = append(g.Nodes, NodeSpec{OpType: "GlobalAveragePool", Name: "avgpool", Attrs: map[string]int{}})
	g.Nodes = append(g.Nodes, NodeSpec{OpType: "Gemm", Name: "fc", Attrs: map[string]int{}})
	g.Initializers = append(g.Initializers,
		InitializerSpec{Name: "fc.weight", Dims: []int{cfg.NumClasses, w[3]}},
		InitializerSpec{Name: "fc.bias", Dims: []int{cfg.NumClasses}},
	)
	return g, nil
}

const magic = "DNNX\x01"

// Encode writes the container to w and returns the number of bytes written.
// Weight payloads are zero-filled: only the size matters for the memory
// objective. Export writes a trained model's actual weights in the same
// format (and therefore the same size).
func Encode(g GraphSpec, w io.Writer) (int64, error) {
	return encode(g, w, nil)
}

// Export serializes a trained model: initializer payloads whose names match
// a model parameter carry the trained values; BatchNorm running statistics
// are filled from the layers' running buffers.
func Export(m *resnet.Model, w io.Writer) (int64, error) {
	g, err := BuildGraphSpec(m.Config)
	if err != nil {
		return 0, err
	}
	values := make(map[string][]float32)
	for _, p := range m.Params() {
		values[p.Name] = p.Data.Data()
	}
	collectRunningStats(m.Stem, values)
	for _, b := range m.Stages {
		for _, bn := range []*nn.BatchNorm2d{b.BN1, b.BN2, b.DownBN} {
			if bn != nil {
				addRunningStats(bn, values)
			}
		}
	}
	collectRunningStats(m.Head, values)
	return encode(g, w, values)
}

func collectRunningStats(seq *nn.Sequential, values map[string][]float32) {
	for _, l := range seq.Layers {
		if bn, ok := l.(*nn.BatchNorm2d); ok {
			addRunningStats(bn, values)
		}
	}
}

func addRunningStats(bn *nn.BatchNorm2d, values map[string][]float32) {
	mean := make([]float32, len(bn.RunningMean))
	variance := make([]float32, len(bn.RunningVar))
	for i := range mean {
		mean[i] = float32(bn.RunningMean[i])
		variance[i] = float32(bn.RunningVar[i])
	}
	values[bn.Name()+".running_mean"] = mean
	values[bn.Name()+".running_var"] = variance
}

func encode(g GraphSpec, w io.Writer, values map[string][]float32) (int64, error) {
	cw := &countWriter{w: w}
	if err := writeAll(cw, []byte(magic)); err != nil {
		return cw.n, err
	}
	if err := writeString(cw, g.Name); err != nil {
		return cw.n, err
	}
	if err := writeUvarint(cw, uint64(len(g.Nodes))); err != nil {
		return cw.n, err
	}
	for _, node := range g.Nodes {
		if err := writeString(cw, node.OpType); err != nil {
			return cw.n, err
		}
		if err := writeString(cw, node.Name); err != nil {
			return cw.n, err
		}
		if err := writeUvarint(cw, uint64(len(node.Attrs))); err != nil {
			return cw.n, err
		}
		for _, key := range sortedAttrKeys(node.Attrs) {
			if err := writeString(cw, key); err != nil {
				return cw.n, err
			}
			if err := writeUvarint(cw, uint64(node.Attrs[key])); err != nil {
				return cw.n, err
			}
		}
	}
	if err := writeUvarint(cw, uint64(len(g.Initializers))); err != nil {
		return cw.n, err
	}
	zeros := make([]byte, 1<<16)
	var scratch []byte // packed weights; allocated on the first initializer with values
	for _, init := range g.Initializers {
		if err := writeString(cw, init.Name); err != nil {
			return cw.n, err
		}
		if err := writeUvarint(cw, uint64(len(init.Dims))); err != nil {
			return cw.n, err
		}
		for _, d := range init.Dims {
			if err := writeUvarint(cw, uint64(d)); err != nil {
				return cw.n, err
			}
		}
		payload := init.Numel() * 4
		if err := writeUvarint(cw, uint64(payload)); err != nil {
			return cw.n, err
		}
		if vals, ok := values[init.Name]; ok && len(vals) == init.Numel() {
			// One Write per 64 KiB of weights, so a caller handing in an
			// unbuffered *os.File pays a syscall per chunk, not per value.
			if scratch == nil {
				scratch = make([]byte, 0, len(zeros))
			}
			for len(vals) > 0 {
				n := min(len(vals), cap(scratch)/4)
				if err := writeAll(cw, tensor.AppendF32LE(scratch[:0], vals[:n])); err != nil {
					return cw.n, err
				}
				vals = vals[n:]
			}
			continue
		}
		for payload > 0 {
			chunk := payload
			if chunk > len(zeros) {
				chunk = len(zeros)
			}
			if err := writeAll(cw, zeros[:chunk]); err != nil {
				return cw.n, err
			}
			payload -= chunk
		}
	}
	return cw.n, nil
}

// SizeBytes returns the exact encoded size of the configuration's export
// without materializing the payload: it adds up what encode would write.
func SizeBytes(cfg resnet.Config) (int64, error) {
	g, err := BuildGraphSpec(cfg)
	if err != nil {
		return 0, err
	}
	return g.encodedSize(), nil
}

// encodedSize mirrors encode field for field: header bytes, uvarint lengths
// and 4 bytes per weight.
func (g GraphSpec) encodedSize() int64 {
	n := int64(len(magic)) + stringSize(g.Name) + uvarintSize(len(g.Nodes))
	for _, node := range g.Nodes {
		n += stringSize(node.OpType) + stringSize(node.Name) + uvarintSize(len(node.Attrs))
		for key, v := range node.Attrs {
			n += stringSize(key) + uvarintSize(v)
		}
	}
	n += uvarintSize(len(g.Initializers))
	for _, init := range g.Initializers {
		n += stringSize(init.Name) + uvarintSize(len(init.Dims))
		for _, d := range init.Dims {
			n += uvarintSize(d)
		}
		payload := 4 * init.Numel()
		n += uvarintSize(payload) + int64(payload)
	}
	return n
}

// uvarintSize is the length of binary.PutUvarint's encoding of v.
func uvarintSize(v int) int64 { return int64(bits.Len64(uint64(v)|1)+6) / 7 }

func stringSize(s string) int64 { return uvarintSize(len(s)) + int64(len(s)) }

// SizeMB returns the export size in megabytes (10^6 bytes, the paper's
// unit).
func SizeMB(cfg resnet.Config) (float64, error) {
	b, err := SizeBytes(cfg)
	if err != nil {
		return 0, err
	}
	return float64(b) / 1e6, nil
}

// ParamCount returns the learnable parameter count implied by the graph
// spec, excluding BatchNorm running statistics (which are buffers, not
// parameters). It cross-checks resnet.Model.NumParams without building
// weights.
func ParamCount(cfg resnet.Config) (int, error) {
	g, err := BuildGraphSpec(cfg)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, init := range g.Initializers {
		if isRunningStat(init.Name) {
			continue
		}
		n += init.Numel()
	}
	return n, nil
}

func isRunningStat(name string) bool {
	const a, b = ".running_mean", ".running_var"
	return len(name) > len(a) && (name[len(name)-len(a):] == a ||
		(len(name) > len(b) && name[len(name)-len(b):] == b))
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeAll(w io.Writer, p []byte) error {
	_, err := w.Write(p)
	return err
}

func writeUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return writeAll(w, buf[:n])
}

func writeString(w io.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	return writeAll(w, []byte(s))
}

func sortedAttrKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
