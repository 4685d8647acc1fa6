package latmeter

import (
	"encoding/json"
	"fmt"
)

// DeviceMS is one model's latency on each predictor, in Devices() order:
// index i is Devices()[i]. It is a value, so copying a measurement copies
// its latencies and nothing is shared.
//
// Its JSON is the object a map from device name to latency encodes to, and
// null for the zero value, which no measured model has.
type DeviceMS [NumDevices]float64

// MarshalJSON writes what encoding/json writes for the map from device
// name to latency, or null for the zero value.
func (d DeviceMS) MarshalJSON() ([]byte, error) {
	if d == (DeviceMS{}) {
		return []byte("null"), nil
	}
	byDevice := make(map[string]float64, NumDevices)
	for i, ms := range d {
		byDevice[devices[i].Name] = ms
	}
	return json.Marshal(byDevice)
}

// UnmarshalJSON reads what MarshalJSON writes: an object keyed by device
// name, in any order and possibly partial, or null for the zero value. An
// unknown device name is an error.
func (d *DeviceMS) UnmarshalJSON(b []byte) error {
	var byDevice map[string]float64
	if err := json.Unmarshal(b, &byDevice); err != nil {
		return err
	}
	*d = DeviceMS{}
	for name, ms := range byDevice {
		i := deviceIndex(name)
		if i < 0 {
			return fmt.Errorf("latmeter: unknown device %q", name)
		}
		d[i] = ms
	}
	return nil
}

// deviceIndex is name's index in Devices(), or -1.
func deviceIndex(name string) int {
	for i := range devices {
		if devices[i].Name == name {
			return i
		}
	}
	return -1
}
