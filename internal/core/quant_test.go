package core

import (
	"testing"

	"drainnas/internal/latmeter"
	"drainnas/internal/nas"
	"drainnas/internal/pareto"
	"drainnas/internal/resnet"
)

func TestMeasureQuantizedScalesObjectives(t *testing.T) {
	cfg := resnet.StockResNet18(7, 16)
	const acc = 90.0
	f, err := Measure(cfg, acc, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := MeasureQuantized(cfg, acc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Precision != PrecisionFP32 || f.PrecisionBits != 32 {
		t.Fatalf("fp32 trial labelled %q/%d", f.Precision, f.PrecisionBits)
	}
	if q.Precision != PrecisionInt8 || q.PrecisionBits != 8 {
		t.Fatalf("int8 trial labelled %q/%d", q.Precision, q.PrecisionBits)
	}
	if !(q.LatencyMS < f.LatencyMS) {
		t.Fatalf("int8 latency %.3f not below fp32 %.3f", q.LatencyMS, f.LatencyMS)
	}
	if got, want := q.MemoryMB, f.MemoryMB*Int8MemoryScale; got != want {
		t.Fatalf("int8 memory %.4f, want %.4f", got, want)
	}
	if !(q.EnergyMJ < f.EnergyMJ) {
		t.Fatalf("int8 energy %.4f not below fp32 %.4f", q.EnergyMJ, f.EnergyMJ)
	}
	if !(q.Accuracy < f.Accuracy) || q.Accuracy < acc-1 {
		t.Fatalf("int8 accuracy %.3f vs fp32 %.3f: derate out of the documented band", q.Accuracy, f.Accuracy)
	}
	for name, ms := range q.PerDevice {
		if !(ms < f.PerDevice[name]) {
			t.Errorf("%s: int8 %.3fms not below fp32 %.3fms", name, ms, f.PerDevice[name])
		}
	}
}

func TestMeasureQuantizedAccuracyFloorsAtZero(t *testing.T) {
	cfg := resnet.StockResNet18(5, 8)
	q, err := MeasureQuantized(cfg, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Accuracy != 0 {
		t.Fatalf("accuracy %.3f, want floor 0", q.Accuracy)
	}
}

// TestNSGA2PrecisionAxis runs the search with both precisions enabled and
// checks the front is a genuine 4-objective Pareto set containing both
// deployment modes.
func TestNSGA2PrecisionAxis(t *testing.T) {
	res, err := NSGA2(NSGA2Options{
		Combo:      nas.InputCombo{Channels: 7, Batch: 16},
		Evaluator:  surrogateEval(),
		Population: 16, Generations: 6, Seed: 11,
		Precisions: []string{PrecisionFP32, PrecisionInt8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	modes := map[string]int{}
	for _, f := range res.Front {
		modes[f.Precision]++
	}
	if modes[PrecisionInt8] == 0 {
		t.Fatal("no int8 trial on the front: int8 strictly improves latency, memory and bits, so at least its best-accuracy form must survive")
	}
	// Front members must be mutually non-dominated under the 4 objectives.
	pts := quantTrialPoints(res.Front)
	for i := range pts {
		for j := range pts {
			if i != j && pareto.Dominates(pts[j], pts[i], QuantObjectives) {
				t.Fatalf("front member %d dominated by %d under QuantObjectives", i, j)
			}
		}
	}
	// Re-deriving the front from the trials must be a fixed point.
	if again := NonDominatedWithPrecision(res.Front); len(again) != len(res.Front) {
		t.Fatalf("front not closed under NonDominatedWithPrecision: %d -> %d", len(res.Front), len(again))
	}
	// Trials carry the scaled measurements end to end.
	for _, f := range res.Front {
		if f.Precision != PrecisionInt8 {
			continue
		}
		ref, err := Measure(f.Config, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.LatencyMS
		g, err := latmeter.Decompose(f.Config, latmeter.DefaultInputSize)
		if err != nil {
			t.Fatal(err)
		}
		if got := latmeter.PredictGraph(g.Int8()).MeanMS; f.LatencyMS != got {
			t.Fatalf("int8 trial latency %.4f, cost model says %.4f (fp32 %.4f)", f.LatencyMS, got, want)
		}
	}
}

func TestNSGA2RejectsUnknownPrecision(t *testing.T) {
	_, err := NSGA2(NSGA2Options{
		Evaluator:  surrogateEval(),
		Precisions: []string{"fp16"},
	})
	if err == nil {
		t.Fatal("expected error for unknown precision")
	}
}

// TestNSGA2DefaultPrecisionStaysThreeObjective pins backward compatibility:
// without Precisions the search behaves exactly as the 3-objective version —
// every trial is fp32 and the front matches a 3-D re-derivation.
func TestNSGA2DefaultPrecisionStaysThreeObjective(t *testing.T) {
	res, err := NSGA2(NSGA2Options{
		Evaluator:  surrogateEval(),
		Population: 12, Generations: 4, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.AllTrials {
		if tr.Precision != PrecisionFP32 {
			t.Fatalf("default search produced a %q trial", tr.Precision)
		}
	}
	// With bits constant, the 4-D front equals the 3-D front.
	if got, want := len(NonDominatedWithPrecision(res.Front)), len(res.Front); got != want {
		t.Fatalf("constant-bits 4-D front size %d, want %d", got, want)
	}
}
