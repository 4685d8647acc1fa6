package latmeter

import (
	"fmt"
	"math"

	"drainnas/internal/memo"
	"drainnas/internal/resnet"
)

// DefaultInputSize is the image side used for latency prediction. The
// paper's chips are ~100 m square at 1 m resolution.
const DefaultInputSize = 100

// Prediction holds the four per-device latencies for one model plus the
// aggregate the paper reports ('latency' = mean, 'lat_std' = standard
// deviation across the four predictors), and the per-inference energy the
// same latencies imply.
type Prediction struct {
	PerDevice DeviceMS
	MeanMS    float64
	StdMS     float64
	// EnergyMJ is Device.EnergyMJ of each predictor, in Devices() order;
	// MeanEnergyMJ is their mean.
	EnergyMJ     [NumDevices]float64
	MeanEnergyMJ float64
}

// Predict decomposes the configuration and predicts latency and energy on
// every device.
func Predict(cfg resnet.Config, inputSize int) (Prediction, error) {
	if inputSize <= 0 {
		inputSize = DefaultInputSize
	}
	g, err := Decompose(cfg, inputSize)
	if err != nil {
		return Prediction{}, err
	}
	return PredictGraph(g), nil
}

// PredictGraph predicts latency and energy of an already-decomposed graph
// on every device: it is a fresh Pricer's Predict, so every kernel is priced
// afresh. Every figure equals its Device.LatencyMS/EnergyMJ counterpart to
// the bit.
func PredictGraph(g Graph) Prediction {
	var p Pricer
	return p.Predict(g)
}

// price is one kernel's share of a graph's totals: Device.scaledMS on each
// device in Devices() order, and Kernel.Bytes for energy.
type price struct {
	ms    [NumDevices]float64
	bytes float64
}

func priceOf(k *Kernel, scale float64) price {
	t := termsOf(*k)
	p := price{bytes: t.bytes}
	for i := range devices {
		p.ms[i] = devices[i].scaledMS(t, scale)
	}
	return p
}

// priceKey packs what termsOf reads of a kernel — its type and geometry —
// into one word: 3 bits of type, 7 of kernel side, 13 of each channel
// count and 14 of each spatial side. ok is false for a kernel too large to
// pack.
func priceKey(k *Kernel) (key uint64, ok bool) {
	const channels, side = 1 << 13, 1 << 14
	if uint(k.Type) >= 8 || uint(k.K) >= 128 || uint(k.InC) >= channels || uint(k.OutC) >= channels ||
		uint(k.HW) >= side || uint(k.OutHW) >= side {
		return 0, false
	}
	return uint64(k.Type) | uint64(k.K)<<3 | uint64(k.InC)<<10 | uint64(k.OutC)<<23 |
		uint64(k.HW)<<36 | uint64(k.OutHW)<<50, true
}

// maxPrices bounds a Pricer's table: a full table starts over. The paper's
// 1,728-config sweep has 730 distinct kernels.
const maxPrices = 1 << 12

// Pricer predicts kernel graphs on every device. One made by NewPricer
// remembers each distinct fp32 kernel geometry's price, so a sweep that
// lowers thousands of configurations to a few hundred distinct kernels
// derives each kernel's roofline once; the zero Pricer remembers nothing.
// Graphs with a precision CostScale, and kernels too large for priceKey,
// are priced afresh. A Pricer is not safe for concurrent use.
type Pricer struct {
	prices *memo.Table[price]
}

// NewPricer returns a Pricer with an empty price table.
func NewPricer() *Pricer {
	return &Pricer{prices: memo.New[price](maxPrices)}
}

func (p *Pricer) price(k *Kernel, scale float64) price {
	key, ok := priceKey(k)
	if !ok || scale != 1 || p.prices == nil {
		return priceOf(k, scale)
	}
	pr, hit := p.prices.Get(key)
	if !hit {
		pr = priceOf(k, 1)
		p.prices.Put(key, pr)
	}
	return pr
}

// Predict prices the graph on every device in one walk over its kernels
// and derives energy from those latencies. Each total adds its kernels'
// shares in kernel order, remembered or not, so every figure equals its
// Device.LatencyMS/EnergyMJ counterpart to the bit.
func (p *Pricer) Predict(g Graph) Prediction {
	var lat [NumDevices]float64
	scale := g.scale()
	bytes := 0.0
	for i := range g.Kernels {
		pr := p.price(&g.Kernels[i], scale)
		bytes += pr.bytes
		for d := range lat {
			lat[d] += pr.ms[d]
		}
	}
	pred := Prediction{PerDevice: lat}
	sum, energy := 0.0, 0.0
	for i := range devices {
		sum += lat[i]
		pred.EnergyMJ[i] = powers[i].energyMJ(lat[i], bytes)
		energy += pred.EnergyMJ[i]
	}
	const n = float64(NumDevices)
	pred.MeanMS = sum / n
	pred.MeanEnergyMJ = energy / n
	ss := 0.0
	for _, ms := range lat {
		diff := ms - pred.MeanMS
		ss += diff * diff
	}
	// Population standard deviation across the four predictors, matching
	// the paper's lat_std column.
	pred.StdMS = math.Sqrt(ss / n)
	return pred
}

// Breakdown returns per-kernel latencies for one device, for the
// latency_compare example and debugging.
func Breakdown(cfg resnet.Config, inputSize int, deviceName string) ([]string, []float64, error) {
	if inputSize <= 0 {
		inputSize = DefaultInputSize
	}
	d, err := DeviceByName(deviceName)
	if err != nil {
		return nil, nil, err
	}
	g, err := Decompose(cfg, inputSize)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(g.Kernels))
	lats := make([]float64, len(g.Kernels))
	for i, k := range g.Kernels {
		names[i] = fmt.Sprintf("%s[%s %dx%d c%d->%d]", k.Name, k.Type, k.HW, k.HW, k.InC, k.OutC)
		lats[i] = d.KernelLatencyMS(k)
	}
	return names, lats, nil
}
