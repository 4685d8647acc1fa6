package latmeter

import (
	"fmt"
	"math"
)

// Device is one latency-prediction target: the paper's four nn-Meter
// predictors (Table 2).
type Device struct {
	// Name matches the nn-Meter predictor name.
	Name string
	// HW and Framework describe the physical target (Table 2 columns).
	HW        string
	Framework string

	// Cost-model coefficients. The model is a per-kernel roofline:
	//
	//	t(kernel) = overhead + max(FLOPs / compute,
	//	                           weightBytes / dramBW + actBytes / cacheBW)
	//
	// Weights are streamed from DRAM on every batch-1 inference (no reuse),
	// while activations mostly live in cache — this split is what makes
	// wide late-stage layers weight-bound and reproduces the paper's
	// strong latency–model-size correlation.
	CompGFLOPS float64 // effective compute throughput, GFLOP/s
	DRAMGBs    float64 // weight-streaming bandwidth, GB/s
	CacheGBs   float64 // activation bandwidth, GB/s
	OverheadUS float64 // per-kernel dispatch overhead, microseconds

	// PoolEff derates pooling throughput (edge runtimes execute pooling
	// kernels far below peak).
	PoolEff float64
}

// devices is the predictor table in Table 2 order. Devices hands out
// copies; the one-pass PredictGraph reads it in place.
var devices = [...]Device{
	{
		Name: "cortexA76cpu", HW: "Pixel4 / CortexA76 CPU", Framework: "TFLite v2.1",
		CompGFLOPS: 130, DRAMGBs: 0.72, CacheGBs: 9, OverheadUS: 45, PoolEff: 0.05,
	},
	{
		Name: "adreno640gpu", HW: "Mi9 / Adreno 640 GPU", Framework: "TFLite v2.1",
		CompGFLOPS: 330, DRAMGBs: 3.2, CacheGBs: 24, OverheadUS: 70, PoolEff: 0.08,
	},
	{
		Name: "adreno630gpu", HW: "Pixel3XL / Adreno 630 GPU", Framework: "TFLite v2.1",
		CompGFLOPS: 290, DRAMGBs: 2.8, CacheGBs: 20, OverheadUS: 78, PoolEff: 0.08,
	},
	{
		Name: "myriadvpu", HW: "Intel Movidius NCS2 / Myriad VPU", Framework: "OpenVINO 2019R2",
		CompGFLOPS: 215, DRAMGBs: 2.1, CacheGBs: 13, OverheadUS: 110, PoolEff: 0.06,
	},
}

// NumDevices is how many predictors Devices returns.
const NumDevices = len(devices)

// Devices returns the paper's four predictors in Table 2 order.
func Devices() []Device {
	d := devices
	return d[:]
}

// DeviceByName looks a predictor up by its nn-Meter name.
func DeviceByName(name string) (Device, error) {
	if i := deviceIndex(name); i >= 0 {
		return devices[i], nil
	}
	return Device{}, fmt.Errorf("latmeter: unknown device %q", name)
}

// weightBytes returns the kernel's parameter traffic (streamed from DRAM).
func weightBytes(k Kernel) float64 {
	const f = 4.0
	switch k.Type {
	case KConvBNReLU, KConvBN:
		return float64(k.OutC*k.InC*k.K*k.K)*f + 2*float64(k.OutC)*f // conv + fused BN scale/shift
	case KFC:
		return float64(k.InC*k.OutC)*f + float64(k.OutC)*f
	default:
		return 0
	}
}

// kernelTerms are the device-independent inputs of one kernel's roofline,
// derived once per kernel however many devices price it.
type kernelTerms struct {
	flops  float64
	bytes  float64 // Kernel.Bytes: all traffic, what energy charges for
	weight float64 // streamed from DRAM
	act    float64 // bytes − weight: the cache-resident stream
	pool   bool    // runs at the device's derated pooling throughput
}

func termsOf(k Kernel) kernelTerms {
	t := kernelTerms{flops: k.FLOPs(), bytes: k.Bytes(), weight: weightBytes(k),
		pool: k.Type == KMaxPool || k.Type == KGlobalAvgPool}
	t.act = t.bytes - t.weight
	return t
}

// kernelMS is the roofline of one kernel on the device in milliseconds.
func (d *Device) kernelMS(t kernelTerms) float64 {
	comp := d.CompGFLOPS
	if t.pool {
		comp *= d.PoolEff
	}
	tComp := t.flops / (comp * 1e9) * 1e3
	tMem := (t.weight/(d.DRAMGBs*1e9) + t.act/(d.CacheGBs*1e9)) * 1e3
	return math.Max(tComp, tMem) + d.OverheadUS/1e3
}

// scaledMS is one kernel's share of a graph's latency: the work term scaled
// by the graph's precision CostScale, the dispatch overhead not. Every graph
// total adds these up in kernel order, so all of them agree to the bit.
func (d *Device) scaledMS(t kernelTerms, scale float64) float64 {
	overhead := d.OverheadUS / 1e3
	return (d.kernelMS(t)-overhead)*scale + overhead
}

// KernelLatencyMS predicts one kernel's latency on the device in
// milliseconds.
func (d Device) KernelLatencyMS(k Kernel) float64 {
	return d.kernelMS(termsOf(k))
}

// LatencyMS predicts the whole graph's latency in milliseconds. A graph
// with a precision CostScale has each kernel's work term scaled while the
// per-kernel dispatch overhead stays fixed — quantization speeds up the
// arithmetic, not the scheduler.
func (d Device) LatencyMS(g Graph) float64 {
	scale := g.scale()
	total := 0.0
	for _, k := range g.Kernels {
		total += d.scaledMS(termsOf(k), scale)
	}
	return total
}
