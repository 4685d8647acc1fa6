package latmeter

import "drainnas/internal/resnet"

// Energy modeling: for battery-powered field deployments (the drainage
// survey drones and data loggers the paper's introduction motivates),
// energy per inference matters as much as latency. The model combines a
// busy-power draw during kernel execution with the per-kernel energy cost
// of the data movement the roofline already accounts for:
//
//	E(kernel) = busyPowerW · t(kernel) + bytes · joulesPerByte
//
// Coefficients are representative published figures for each device class
// (mobile big-core cluster, mobile GPU, edge VPU).

// devicePower holds the per-device energy coefficients.
type devicePower struct {
	BusyPowerW   float64 // average package power while executing, watts
	NanoJPerByte float64 // DRAM access energy, nJ/byte
	IdlePowerW   float64 // floor draw attributed to the inference window
}

// powerProfiles indexes coefficients by device name.
var powerProfiles = map[string]devicePower{
	"cortexA76cpu": {BusyPowerW: 3.2, NanoJPerByte: 0.18, IdlePowerW: 0.5},
	"adreno640gpu": {BusyPowerW: 2.4, NanoJPerByte: 0.12, IdlePowerW: 0.4},
	"adreno630gpu": {BusyPowerW: 2.2, NanoJPerByte: 0.13, IdlePowerW: 0.4},
	"myriadvpu":    {BusyPowerW: 1.5, NanoJPerByte: 0.15, IdlePowerW: 0.3},
}

// EnergyMJ estimates one inference's energy on the device in millijoules.
func (d Device) EnergyMJ(g Graph) float64 {
	p, ok := powerProfiles[d.Name]
	if !ok {
		p = devicePower{BusyPowerW: 2.5, NanoJPerByte: 0.15, IdlePowerW: 0.4}
	}
	latencySec := d.LatencyMS(g) / 1e3
	compute := (p.BusyPowerW + p.IdlePowerW) * latencySec // joules
	memory := g.TotalBytes() * p.NanoJPerByte * 1e-9      // joules
	return (compute + memory) * 1e3
}

// EnergyPrediction aggregates per-device energy like Prediction does for
// latency.
type EnergyPrediction struct {
	PerDevice map[string]float64
	MeanMJ    float64
}

// PredictEnergy estimates per-inference energy for a configuration on all
// devices.
func PredictEnergy(cfg resnet.Config, inputSize int) (EnergyPrediction, error) {
	if inputSize <= 0 {
		inputSize = DefaultInputSize
	}
	g, err := Decompose(cfg, inputSize)
	if err != nil {
		return EnergyPrediction{}, err
	}
	return PredictEnergyGraph(g), nil
}

// PredictEnergyGraph estimates energy for an already-decomposed graph on all
// devices — the entry point for callers that hold or adjust the graph first
// (e.g. Graph.Int8 for an int8 deployment).
func PredictEnergyGraph(g Graph) EnergyPrediction {
	devices := Devices()
	p := EnergyPrediction{PerDevice: make(map[string]float64, len(devices))}
	sum := 0.0
	for _, d := range devices {
		e := d.EnergyMJ(g)
		p.PerDevice[d.Name] = e
		sum += e
	}
	p.MeanMJ = sum / float64(len(devices))
	return p
}
