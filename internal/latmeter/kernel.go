// Package latmeter predicts the inference latency of the configurable
// ResNet-18 models on embedded devices, standing in for Microsoft's
// nn-Meter. Like nn-Meter it works at kernel granularity: the model is
// decomposed into the fused execution kernels an edge inference runtime
// schedules (conv-bn-relu, max-pool, residual add-relu, global pooling,
// fully connected), and a per-device cost model predicts each kernel's
// latency. The package also contains a "measured device" simulator —
// the same cost structure perturbed by systematic and random error — used
// to validate the predictors' ±10% accuracy as in the paper's Table 2.
package latmeter

import "fmt"

// KernelType enumerates the fused kernels the runtime executes.
type KernelType int

// The kernel kinds produced by decomposition.
const (
	KConvBNReLU KernelType = iota // convolution fused with BN and ReLU
	KConvBN                       // convolution fused with BN (no activation)
	KMaxPool
	KAddReLU // residual elementwise add + ReLU
	KGlobalAvgPool
	KFC
)

// String names the kernel type.
func (k KernelType) String() string {
	switch k {
	case KConvBNReLU:
		return "conv-bn-relu"
	case KConvBN:
		return "conv-bn"
	case KMaxPool:
		return "maxpool"
	case KAddReLU:
		return "add-relu"
	case KGlobalAvgPool:
		return "gap"
	case KFC:
		return "fc"
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// Kernel is one schedulable unit with the geometry the cost model needs.
// All spatial sizes refer to the kernel's input feature map (HW) and output
// feature map (OutHW); batch size is 1 (inference latency, as in the paper).
type Kernel struct {
	Type  KernelType
	Name  string
	InC   int // input channels
	OutC  int // output channels
	HW    int // input spatial side
	OutHW int // output spatial side
	K     int // filter/pool kernel side (0 when n/a)
	S     int // stride (0 when n/a)
}

// FLOPs returns the kernel's multiply-accumulate-derived floating point
// operations (2 ops per MAC), the convention edge profilers use.
func (k Kernel) FLOPs() float64 {
	out := float64(k.OutHW * k.OutHW)
	switch k.Type {
	case KConvBNReLU, KConvBN:
		macs := out * float64(k.OutC) * float64(k.InC) * float64(k.K*k.K)
		// BN+ReLU fuse into the conv epilogue: ~3 ops/output element.
		return 2*macs + 3*out*float64(k.OutC)
	case KMaxPool:
		// One compare per window element per output.
		return out * float64(k.OutC) * float64(k.K*k.K)
	case KAddReLU:
		return 2 * out * float64(k.OutC)
	case KGlobalAvgPool:
		return float64(k.HW*k.HW) * float64(k.InC)
	case KFC:
		return 2 * float64(k.InC) * float64(k.OutC)
	default:
		return 0
	}
}

// Bytes returns the kernel's main-memory traffic in bytes assuming fp32
// activations/weights and no cross-kernel fusion: inputs are read, outputs
// written, weights read once.
func (k Kernel) Bytes() float64 {
	const f = 4.0
	in := float64(k.HW*k.HW) * float64(k.InC) * f
	out := float64(k.OutHW*k.OutHW) * float64(k.OutC) * f
	switch k.Type {
	case KConvBNReLU, KConvBN:
		weights := float64(k.OutC*k.InC*k.K*k.K) * f
		return in + out + weights
	case KMaxPool:
		return in + out
	case KAddReLU:
		// Two input tensors plus one output.
		return 2*in + out
	case KGlobalAvgPool:
		return in + float64(k.InC)*f
	case KFC:
		return float64(k.InC)*f + float64(k.OutC)*f + float64(k.InC*k.OutC)*f
	default:
		return 0
	}
}

// Int8CostScale is the compute-time coefficient of int8 execution relative
// to float32 on the modeled CPUs, fitted to the compiled plans' measured
// per-sample ratio at the deployment size once the int8 forward's pack,
// requantize epilogue, residual add and quantizer ran on AVX2: front32 at
// 5×100×100, Front32Int8/Front32FP32 = 0.676 at batch 1 and 0.881 at
// batch 8, the medians of five alternating parent/change pairs whose last
// is BENCH_infer.json run 13 (2.971/3.833 and 2.368/2.773 ms per sample).
// 0.78 splits the difference, as the first fit (0.6, from run 2's 0.58 and
// 0.64) did; in between, the int8 kernels' Go-side pack and epilogue had
// made int8 slower than fp32 (1.79 and 2.33 in run 11). The router's SJF
// seeds, capsim and scan -device read it. Dispatch overhead is
// precision-independent, so the scale applies to kernel work only — see
// Device.LatencyMS.
const Int8CostScale = 0.78

// Graph is an ordered kernel sequence for one model.
type Graph struct {
	Kernels []Kernel
	// InputSize is the image side the graph was built for.
	InputSize int
	// CostScale scales each kernel's work term (not the dispatch overhead)
	// for non-fp32 precision modes; 0 means 1 (fp32). Int8 graphs carry
	// Int8CostScale.
	CostScale float64
}

// Int8 returns the graph as an int8 deployment executes it: the same
// kernels with Int8CostScale on their work term.
func (g Graph) Int8() Graph {
	g.CostScale = Int8CostScale
	return g
}

// scale is the graph's CostScale with 0 read as 1.
func (g Graph) scale() float64 {
	if g.CostScale <= 0 {
		return 1
	}
	return g.CostScale
}

// TotalFLOPs sums FLOPs over the graph.
func (g Graph) TotalFLOPs() float64 {
	s := 0.0
	for _, k := range g.Kernels {
		s += k.FLOPs()
	}
	return s
}

// TotalBytes sums memory traffic over the graph.
func (g Graph) TotalBytes() float64 {
	s := 0.0
	for _, k := range g.Kernels {
		s += k.Bytes()
	}
	return s
}
