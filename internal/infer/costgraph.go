package infer

import (
	"fmt"

	"drainnas/internal/latmeter"
)

// CostGraph lowers the compiled plan into latmeter's fused kernel graph for
// a batch-1 forward over an inputSize×inputSize image. This is how a serving
// tier predicts a model's latency when all it holds is the compiled
// container — the resnet.Config that latmeter.Decompose wants is not
// retained in a .dnnx file, but the plan's fused ops carry the same geometry
// the cost model needs. The router uses this to seed its shortest-job-first
// latency estimates per deployed model at startup.
//
// The kernel sequence matches latmeter.Decompose kernel-for-kernel on
// exporter-produced containers (the parity test pins it), because plan
// compilation fuses exactly the chains decomposition assumes: Conv+BN+ReLU
// into one kernel, Add+ReLU into one join.
func (p *Plan) CostGraph(inputSize int) (latmeter.Graph, error) {
	if inputSize <= 0 {
		return latmeter.Graph{}, fmt.Errorf("infer: cost graph input size %d", inputSize)
	}
	shapes, err := p.shapes(1, inputSize, inputSize)
	if err != nil {
		return latmeter.Graph{}, err
	}
	// The spatial side of a value; pooled (N, C) features count as 1×1.
	side := func(v int) int {
		if len(shapes[v]) == 4 {
			return shapes[v][2]
		}
		return 1
	}
	ks := make([]latmeter.Kernel, 0, len(p.ops))
	for _, op := range p.ops {
		k := latmeter.Kernel{Name: op.name, InC: shapes[op.in][1], OutC: shapes[op.out][1],
			HW: side(op.in), OutHW: side(op.out)}
		switch op.kind {
		case opConv:
			kh, kw := op.conv.KernelSize()
			if kh != kw {
				return latmeter.Graph{}, fmt.Errorf("infer: op %s has non-square kernel %dx%d, cost model wants square", op.name, kh, kw)
			}
			k.Type, k.K, k.S = latmeter.KConvBN, kh, op.conv.Stride()
			if op.conv.HasReLU() {
				k.Type = latmeter.KConvBNReLU
			}
		case opRelu:
			// A standalone ReLU only arises when the exporter's fusion chains
			// were broken; it is elementwise and contributes no kernel of its
			// own in the cost model.
			continue
		case opMaxPool:
			k.Type, k.K, k.S = latmeter.KMaxPool, op.kernel, op.stride
		case opAdd:
			k.Type = latmeter.KAddReLU
		case opGlobalAvgPool:
			k.Type = latmeter.KGlobalAvgPool
		case opFC:
			k.Type = latmeter.KFC
		}
		ks = append(ks, k)
	}
	g := latmeter.Graph{Kernels: ks, InputSize: inputSize}
	if p.Precision() == PrecisionInt8 {
		g = g.Int8()
	}
	return g, nil
}
