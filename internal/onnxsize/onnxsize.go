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

// attr is one integer node attribute (kernel, stride, padding, ...).
type attr struct {
	key string
	val int
}

// exporter receives a network's nodes and weight tensors in file order and
// adds up what encode writes for each — string and uvarint lengths, 4 bytes
// per weight. With spec set it also materializes them into the graph;
// without, sizing a configuration builds no names, attribute maps or dims.
type exporter struct {
	spec           *GraphSpec
	size           int64
	nodes, tensors int
}

func (e *exporter) node(op, name string, attrs ...attr) {
	e.nodes++
	e.size += stringSize(len(op)) + stringSize(len(name)) + uvarintSize(len(attrs))
	for _, a := range attrs {
		e.size += stringSize(len(a.key)) + uvarintSize(a.val)
	}
	if e.spec != nil {
		m := make(map[string]int, len(attrs))
		for _, a := range attrs {
			m[a.key] = a.val
		}
		e.spec.Nodes = append(e.spec.Nodes, NodeSpec{OpType: op, Name: name, Attrs: m})
	}
}

// tensor adds the initializer named node+suffix.
func (e *exporter) tensor(node, suffix string, dims ...int) {
	e.tensors++
	e.size += stringSize(len(node)+len(suffix)) + uvarintSize(len(dims))
	payload := 4
	for _, d := range dims {
		e.size += uvarintSize(d)
		payload *= d
	}
	e.size += uvarintSize(payload) + int64(payload)
	if e.spec != nil {
		e.spec.Initializers = append(e.spec.Initializers,
			InitializerSpec{Name: node + suffix, Dims: append([]int(nil), dims...)})
	}
}

// layers exports a layer list: each fused layer as the runtime's unfused
// ops (Conv, BatchNormalization, Relu, MaxPool, Add, GlobalAveragePool,
// Gemm) with every parameter tensor including BatchNorm running statistics,
// as a real ONNX export does.
func (e *exporter) layers(layers []resnet.Layer) {
	for _, l := range layers {
		switch l.Kind {
		case resnet.LayerConv:
			e.node("Conv", l.Node, attr{"kernel", l.K}, attr{"stride", l.S}, attr{"pad", l.P})
			e.tensor(l.Node, ".weight", l.OutC, l.InC, l.K, l.K)
			e.node("BatchNormalization", l.BN, attr{"epsilon_e9", 10000})
			for _, suffix := range [...]string{".gamma", ".beta", ".running_mean", ".running_var"} {
				e.tensor(l.BN, suffix, l.OutC)
			}
		case resnet.LayerMaxPool:
			// The pad attribute is explicit so the runtime reads the real
			// padding instead of guessing it back from the kernel size.
			e.node("MaxPool", l.Node, attr{"kernel", l.K}, attr{"stride", l.S}, attr{"pad", l.P})
		case resnet.LayerAdd:
			e.node("Add", l.Node)
		case resnet.LayerGlobalAvgPool:
			e.node("GlobalAveragePool", l.Node)
		case resnet.LayerFC:
			e.node("Gemm", l.Node)
			e.tensor(l.Node, ".weight", l.OutC, l.InC)
			e.tensor(l.Node, ".bias", l.OutC)
		}
		if l.Act != "" {
			e.node("Relu", l.Act)
		}
	}
}

// graphName carries only architectural identity: batch size is a runtime
// choice and must not perturb the serialized size.
func graphName(cfg resnet.Config) string {
	arch := cfg.Canonical()
	arch.Batch = 1
	return "resnet18-" + arch.Key()
}

// BuildGraphSpec lowers a ResNet configuration to its exported graph.
func BuildGraphSpec(cfg resnet.Config) (GraphSpec, error) {
	if err := cfg.Validate(); err != nil {
		return GraphSpec{}, err
	}
	g := GraphSpec{Name: graphName(cfg)}
	(&exporter{spec: &g}).layers(cfg.Layers())
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
	for _, bn := range m.BatchNorms() {
		addRunningStats(bn, values)
	}
	return encode(g, w, values)
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
// without materializing the graph or the payload.
func SizeBytes(cfg resnet.Config) (int64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	return SizeBytesOf(cfg, cfg.Layers()), nil
}

// SizeBytesOf is SizeBytes for a caller that already holds cfg's layer list.
func SizeBytesOf(cfg resnet.Config, layers []resnet.Layer) int64 {
	var e exporter
	e.layers(layers)
	return int64(len(magic)) + stringSize(len(graphName(cfg))) +
		uvarintSize(e.nodes) + uvarintSize(e.tensors) + e.size
}

// uvarintSize is the length of binary.PutUvarint's encoding of v.
func uvarintSize(v int) int64 { return int64(bits.Len64(uint64(v)|1)+6) / 7 }

// stringSize is the length of writeString's encoding of an n-byte string.
func stringSize(n int) int64 { return uvarintSize(n) + int64(n) }

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
