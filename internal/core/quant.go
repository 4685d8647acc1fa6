package core

import (
	"sort"

	"drainnas/internal/pareto"
	"drainnas/internal/resnet"
)

// Precision labels for Trial.Precision. They match infer.Precision's wire
// values so a trial row names the same mode a "model@int8" serving key does.
const (
	PrecisionFP32 = "fp32"
	PrecisionInt8 = "int8"
)

// QuantObjectives extends the paper's three objectives with precision bits
// (minimized): an int8 deployment that holds accuracy dominates its fp32
// form on every other axis, and the 4-D front keeps both when it does not.
var QuantObjectives = []pareto.Direction{pareto.Maximize, pareto.Minimize, pareto.Minimize, pareto.Minimize}

// Int8MemoryScale is the int8 deployment's size relative to the fp32 ONNX
// export: weights drop to a quarter, and per-channel scales, compensation
// terms and the fp32 classifier head hold the ratio just above 1/4.
const Int8MemoryScale = 0.26

// int8AccuracyDropPct models the accuracy cost of post-training int8
// quantization in percentage points. Calibrated against the float-oracle
// parity harness (TestQuantParityRandomConfigs): logit perturbation stays
// within ~6% of logit magnitude, which flips well under 1% of predictions,
// and narrower stems sit closer to the bound — so the drop floors at 0.2
// points and grows as the initial feature width shrinks.
func int8AccuracyDropPct(cfg resnet.Config) float64 {
	return 0.2 + 1.6/float64(cfg.InitialOutputFeature)
}

// MeasureQuantized is Measure for a configuration deployed in int8.
func MeasureQuantized(cfg resnet.Config, accuracy float64, inputSize int) (Trial, error) {
	return measure(cfg, accuracy, inputSize, PrecisionInt8)
}

// precisionBits reads the trial's numeric precision axis, treating
// unlabelled trials (pre-quantization journals) as fp32.
func precisionBits(t Trial) float64 {
	if t.PrecisionBits > 0 {
		return float64(t.PrecisionBits)
	}
	return 32
}

// quantTrialPoints exposes trials as 4-objective points
// (accuracy, latency, memory, precision bits).
func quantTrialPoints(trials []Trial) []pareto.Point {
	pts := make([]pareto.Point, len(trials))
	for i, t := range trials {
		pts[i] = pareto.Point{ID: i, Values: []float64{t.Accuracy, t.LatencyMS, t.MemoryMB, precisionBits(t)}}
	}
	return pts
}

// NonDominatedWithPrecision returns the Pareto set over
// (accuracy, latency, memory, precision bits), best accuracy first. On
// all-fp32 trial sets the constant fourth axis never discriminates and the
// result equals the 3-objective front.
func NonDominatedWithPrecision(trials []Trial) []Trial {
	idx := pareto.NonDominated(quantTrialPoints(trials), QuantObjectives)
	out := make([]Trial, len(idx))
	for i, id := range idx {
		out[i] = trials[id]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Accuracy > out[b].Accuracy })
	return out
}
