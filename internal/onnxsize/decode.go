package onnxsize

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"drainnas/internal/tensor"
)

// Decoding bounds: a single initializer larger than 2^28 elements (1 GiB of
// fp32), a node with more than 64 attributes or an attribute above 2^20 is
// rejected as corrupt rather than attempted. The bounds are far above
// anything the exporter produces and exist to keep hostile containers from
// driving huge allocations or integer overflow; for the same reason a
// declared count sizes no buffer past what the container has already
// delivered (see readPayload).
const (
	maxInitializerElems = 1 << 28
	maxNodeAttrs        = 64
	maxAttrValue        = 1 << 20

	// payloadPrealloc is the elements any payload may size before its bytes
	// arrive (4 MiB of fp32).
	payloadPrealloc = 1 << 20
)

// Decoded is a parsed export container.
type Decoded struct {
	Graph GraphSpec
	// Weights maps initializer names to their payload values.
	Weights map[string][]float32
}

// Decode parses a container produced by Encode or Export, validating its
// structure. It is the consumer side of the deployment format: a runtime
// loading an exported model would read exactly this.
func Decode(r io.Reader) (*Decoded, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("onnxsize: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("onnxsize: bad magic %q", head)
	}
	out := &Decoded{Weights: make(map[string][]float32)}
	var err error
	if out.Graph.Name, err = readString(br); err != nil {
		return nil, fmt.Errorf("onnxsize: graph name: %w", err)
	}
	nNodes, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("onnxsize: node count: %w", err)
	}
	if nNodes > 1<<20 {
		return nil, fmt.Errorf("onnxsize: implausible node count %d", nNodes)
	}
	for i := uint64(0); i < nNodes; i++ {
		var node NodeSpec
		if node.OpType, err = readString(br); err != nil {
			return nil, fmt.Errorf("onnxsize: node %d op: %w", i, err)
		}
		if node.Name, err = readString(br); err != nil {
			return nil, fmt.Errorf("onnxsize: node %d name: %w", i, err)
		}
		nAttrs, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("onnxsize: node %d attrs: %w", i, err)
		}
		if nAttrs > maxNodeAttrs {
			return nil, fmt.Errorf("onnxsize: node %d has %d attrs", i, nAttrs)
		}
		node.Attrs = make(map[string]int, nAttrs)
		for a := uint64(0); a < nAttrs; a++ {
			key, err := readString(br)
			if err != nil {
				return nil, fmt.Errorf("onnxsize: node %d attr key: %w", i, err)
			}
			val, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("onnxsize: node %d attr %s: %w", i, key, err)
			}
			if val > maxAttrValue {
				return nil, fmt.Errorf("onnxsize: node %d attr %s = %d too large", i, key, val)
			}
			node.Attrs[key] = int(val)
		}
		out.Graph.Nodes = append(out.Graph.Nodes, node)
	}
	nInits, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("onnxsize: initializer count: %w", err)
	}
	if nInits > 1<<20 {
		return nil, fmt.Errorf("onnxsize: implausible initializer count %d", nInits)
	}
	read := 0 // payload elements decoded so far
	for i := uint64(0); i < nInits; i++ {
		var init InitializerSpec
		if init.Name, err = readString(br); err != nil {
			return nil, fmt.Errorf("onnxsize: initializer %d name: %w", i, err)
		}
		nDims, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("onnxsize: initializer %s dims: %w", init.Name, err)
		}
		if nDims > 8 {
			return nil, fmt.Errorf("onnxsize: initializer %s has %d dims", init.Name, nDims)
		}
		// Track the element count with an explicit overflow guard: huge or
		// adversarial dims must fail cleanly instead of wrapping int and
		// panicking in make().
		numel := uint64(1)
		for d := uint64(0); d < nDims; d++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("onnxsize: initializer %s dim %d: %w", init.Name, d, err)
			}
			if v > maxInitializerElems {
				return nil, fmt.Errorf("onnxsize: initializer %s dim %d = %d too large", init.Name, d, v)
			}
			numel *= v
			if numel > maxInitializerElems {
				return nil, fmt.Errorf("onnxsize: initializer %s implies %d elements", init.Name, numel)
			}
			init.Dims = append(init.Dims, int(v))
		}
		payload, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("onnxsize: initializer %s payload size: %w", init.Name, err)
		}
		if payload != numel*4 {
			return nil, fmt.Errorf("onnxsize: initializer %s payload %d bytes, dims imply %d",
				init.Name, payload, numel*4)
		}
		vals, err := readPayload(br, int(numel), max(payloadPrealloc, read))
		if err != nil {
			return nil, fmt.Errorf("onnxsize: initializer %s payload: %w", init.Name, err)
		}
		read += len(vals)
		out.Graph.Initializers = append(out.Graph.Initializers, init)
		out.Weights[init.Name] = vals
	}
	// Trailing bytes indicate corruption.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("onnxsize: trailing data after container")
	}
	return out, nil
}

// readPayload reads numel little-endian float32 values from r straight
// into the returned slice. The slice starts at min(numel, prealloc)
// elements — Decode passes the larger of payloadPrealloc and the elements
// the container has delivered so far, so a payload is sized up front only
// as far as real bytes stand behind it, and a model whose layers widen as
// they go (every ResNet) never grows one. A slice that falls short doubles,
// capped at numel, once its values have arrived. A payload that ends early
// is io.ErrUnexpectedEOF.
func readPayload(r io.Reader, numel, prealloc int) ([]float32, error) {
	vals := make([]float32, min(numel, prealloc))
	for got := 0; ; {
		if err := tensor.ReadF32LE(r, vals[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if got = len(vals); got == numel {
			return vals, nil
		}
		grown := make([]float32, min(numel, 2*got))
		copy(grown, vals)
		vals = grown
	}
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
