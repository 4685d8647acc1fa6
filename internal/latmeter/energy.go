package latmeter

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

// powerOf returns the device's energy coefficients; an unknown device gets
// a generic mobile profile.
func powerOf(d *Device) devicePower {
	if p, ok := powerProfiles[d.Name]; ok {
		return p
	}
	return devicePower{BusyPowerW: 2.5, NanoJPerByte: 0.15, IdlePowerW: 0.4}
}

// powers holds powerOf for each entry of devices.
var powers = func() (p [NumDevices]devicePower) {
	for i := range devices {
		p[i] = powerOf(&devices[i])
	}
	return p
}()

// energyMJ is the energy model: busy and idle power over the inference's
// latency plus the DRAM cost of its traffic, in millijoules.
func (p devicePower) energyMJ(latencyMS, totalBytes float64) float64 {
	latencySec := latencyMS / 1e3
	compute := (p.BusyPowerW + p.IdlePowerW) * latencySec // joules
	memory := totalBytes * p.NanoJPerByte * 1e-9          // joules
	return (compute + memory) * 1e3
}

// EnergyMJ estimates one inference's energy on the device in millijoules.
func (d Device) EnergyMJ(g Graph) float64 {
	return powerOf(&d).energyMJ(d.LatencyMS(g), g.TotalBytes())
}
