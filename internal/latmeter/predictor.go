package latmeter

import (
	"fmt"
	"math"

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
	PerDevice map[string]float64
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
// on every device in one walk over its kernels: each kernel's FLOPs and
// traffic are derived once and priced on all four devices, and energy reads
// those latencies. Every figure equals its Device.LatencyMS/EnergyMJ
// counterpart to the bit.
func PredictGraph(g Graph) Prediction {
	var lat [NumDevices]float64
	scale := g.scale()
	bytes := 0.0
	for _, k := range g.Kernels {
		t := termsOf(k)
		bytes += t.bytes
		for i := range devices {
			lat[i] += devices[i].scaledMS(t, scale)
		}
	}
	p := Prediction{PerDevice: make(map[string]float64, NumDevices)}
	sum, energy := 0.0, 0.0
	for i := range devices {
		p.PerDevice[devices[i].Name] = lat[i]
		sum += lat[i]
		p.EnergyMJ[i] = powers[i].energyMJ(lat[i], bytes)
		energy += p.EnergyMJ[i]
	}
	const n = float64(NumDevices)
	p.MeanMS = sum / n
	p.MeanEnergyMJ = energy / n
	ss := 0.0
	for _, ms := range lat {
		diff := ms - p.MeanMS
		ss += diff * diff
	}
	// Population standard deviation across the four predictors, matching
	// the paper's lat_std column.
	p.StdMS = math.Sqrt(ss / n)
	return p
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
