package core

import (
	"math"
	"testing"

	"drainnas/internal/nas"
	"drainnas/internal/pareto"
	"drainnas/internal/resnet"
	"drainnas/internal/surrogate"
)

func surrogateEval() nas.Evaluator {
	return nas.SurrogateEvaluator{Model: surrogate.Default()}
}

func fullRun(t *testing.T) *Result {
	t.Helper()
	res, err := Run(Options{
		Evaluator:         surrogateEval(),
		SimulateAttrition: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunReproducesValidTrialCount(t *testing.T) {
	res := fullRun(t)
	if res.RawTrials != 1728 {
		t.Fatalf("raw trials %d, want 1728", res.RawTrials)
	}
	if len(res.Trials) != nas.PaperValidTrialCount {
		t.Fatalf("valid trials %d, want %d", len(res.Trials), nas.PaperValidTrialCount)
	}
}

func TestRunObjectiveRangesShapedLikeTable3(t *testing.T) {
	res := fullRun(t)
	mins, maxs := res.ObjectiveRanges()
	// Paper Table 3: accuracy 76.19–96.13 %, latency 8.13–249.56 ms,
	// memory 11.18–44.69 MB. Accuracy and memory should land close; the
	// latency range is compressed by our physically-consistent cost model
	// (documented in EXPERIMENTS.md) but orderings hold.
	if mins[0] > 85 || maxs[0] < 94 || maxs[0] > 99 {
		t.Fatalf("accuracy range [%.2f, %.2f]", mins[0], maxs[0])
	}
	if mins[2] < 11.0 || mins[2] > 11.6 {
		t.Fatalf("memory min %.2f, want ≈11.18", mins[2])
	}
	if maxs[2] < 44.0 || maxs[2] > 45.5 {
		t.Fatalf("memory max %.2f, want ≈44.69+ε", maxs[2])
	}
	if mins[1] <= 0 || maxs[1] <= mins[1]*3 {
		t.Fatalf("latency range [%.2f, %.2f] — span too narrow", mins[1], maxs[1])
	}
}

func TestFrontIsNonDominatedAndSmall(t *testing.T) {
	res := fullRun(t)
	if len(res.FrontIdx) == 0 {
		t.Fatal("empty Pareto front")
	}
	// The paper finds 5 non-dominated solutions; our reproduction should
	// find a similarly small set.
	if len(res.FrontIdx) > 25 {
		t.Fatalf("front size %d — far larger than the paper's 5", len(res.FrontIdx))
	}
	pts := res.Points()
	for _, fi := range res.FrontIdx {
		for _, pj := range pts {
			if pareto.Dominates(pj, pts[fi], Objectives) {
				t.Fatalf("front member %d is dominated", fi)
			}
		}
	}
}

// TestReproCheckFront is the reproduction's pin (make repro-check): the full
// sweep attempts 1,728 trials and keeps 1,717, and its front is exactly the
// five solutions EXPERIMENTS.md tabulates — kernel 3, stride 2, width 32,
// padding at most 2, all on the 11.21 MB memory floor. The looser tests
// around it say the front is small and paper-shaped; this one says it has
// not moved, whichever of accuracy, latency or export size a change touched.
func TestReproCheckFront(t *testing.T) {
	res := fullRun(t)
	if res.RawTrials != 1728 || len(res.Trials) != nas.PaperValidTrialCount {
		t.Fatalf("%d raw / %d valid trials, want 1728 / %d", res.RawTrials, len(res.Trials), nas.PaperValidTrialCount)
	}
	front := res.NonDominated()
	if len(front) != 5 {
		t.Fatalf("%d non-dominated solutions, want exactly 5", len(front))
	}
	for _, trial := range front {
		c := trial.Config
		if c.KernelSize != 3 || c.Stride != 2 || c.InitialOutputFeature != 32 || c.Padding > 2 {
			t.Errorf("front member %s: want kernel 3, stride 2, width 32, padding ≤ 2", c.Key())
		}
		if math.Abs(trial.MemoryMB-11.21) >= 0.005 {
			t.Errorf("front member %s: %.4f MB, want the 11.21 MB floor", c.Key(), trial.MemoryMB)
		}
	}
}

func TestFrontSharesPaperTraits(t *testing.T) {
	// Paper §4/Figure 4: all non-dominated models use the smallest kernel,
	// and the minimal-memory width (32 features).
	res := fullRun(t)
	for _, trial := range res.NonDominated() {
		if trial.Config.KernelSize != 3 {
			t.Errorf("front member uses kernel %d (paper: all use 3): %+v",
				trial.Config.KernelSize, trial.Config)
		}
		if trial.Config.InitialOutputFeature != 32 {
			t.Errorf("front member uses width %d (paper: all use 32)",
				trial.Config.InitialOutputFeature)
		}
	}
	// Sorted by descending accuracy.
	front := res.NonDominated()
	for i := 1; i < len(front); i++ {
		if front[i].Accuracy > front[i-1].Accuracy {
			t.Fatal("front not sorted by accuracy")
		}
	}
}

func TestFrontBeatsBaselines(t *testing.T) {
	// The paper: "all our non-dominated models surpassed the general
	// ResNet-18": lower latency, lower memory, comparable accuracy.
	res := fullRun(t)
	baselines, err := Baselines(nil, surrogateEval(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(baselines) != 6 {
		t.Fatalf("baselines %d, want 6", len(baselines))
	}
	front := res.NonDominated()
	flags := DominatesBaseline(front, baselines, 1.5)
	wins := 0
	for _, ok := range flags {
		if ok {
			wins++
		}
	}
	if wins < len(front)/2 {
		t.Fatalf("only %d/%d front members beat their baseline", wins, len(front))
	}
	// Every front member must use ~4x less memory than stock.
	for _, f := range front {
		if f.MemoryMB > 20 {
			t.Fatalf("front member memory %.2f MB — not in the small tier", f.MemoryMB)
		}
	}
}

func TestBaselinesMatchTable5Shape(t *testing.T) {
	baselines, err := Baselines(nil, surrogateEval(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range baselines {
		if b.MemoryMB < 44 || b.MemoryMB > 46 {
			t.Fatalf("baseline memory %.2f", b.MemoryMB)
		}
		if b.LatencyMS < 25 || b.LatencyMS > 40 {
			t.Fatalf("baseline latency %.2f", b.LatencyMS)
		}
		if b.Accuracy < 86 || b.Accuracy > 98 {
			t.Fatalf("baseline accuracy %.2f", b.Accuracy)
		}
	}
	// Within a channel count, latency identical across batch sizes
	// (Table 5 rows share 31.91 / 32.46).
	if baselines[0].LatencyMS != baselines[1].LatencyMS ||
		baselines[1].LatencyMS != baselines[2].LatencyMS {
		t.Fatal("5ch baseline latency differs across batch sizes")
	}
	if baselines[3].LatencyMS <= baselines[0].LatencyMS {
		t.Fatal("7ch baseline must be slower than 5ch")
	}
}

func TestMeasureAttachesAllObjectives(t *testing.T) {
	trial, err := Measure(resnet.StockResNet18(5, 8), 92.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if trial.Accuracy != 92.9 || trial.LatencyMS <= 0 || trial.MemoryMB <= 0 || trial.LatStdMS <= 0 {
		t.Fatalf("trial %+v", trial)
	}
	if len(trial.PerDevice) != 4 {
		t.Fatalf("per-device %d entries", len(trial.PerDevice))
	}
}

func TestMeasureRejectsInvalid(t *testing.T) {
	if _, err := Measure(resnet.Config{}, 90, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunRequiresEvaluator(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatal("expected error for missing evaluator")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := fullRun(t)
	b := fullRun(t)
	if len(a.Trials) != len(b.Trials) || len(a.FrontIdx) != len(b.FrontIdx) {
		t.Fatal("run not deterministic in sizes")
	}
	for i := range a.FrontIdx {
		if a.FrontIdx[i] != b.FrontIdx[i] {
			t.Fatal("front not deterministic")
		}
	}
	for i := range a.Trials {
		if math.Abs(a.Trials[i].Accuracy-b.Trials[i].Accuracy) > 0 {
			t.Fatal("accuracies not deterministic")
		}
	}
}

func TestSmallSpaceRun(t *testing.T) {
	// A pruned space (the paper's §5 suggestion: fix padding to 1) must run
	// end to end and produce a front.
	sp := nas.PaperSpace()
	sp.Paddings = []int{1}
	res, err := Run(Options{
		Space:     sp,
		Combos:    []nas.InputCombo{{Channels: 5, Batch: 16}},
		Evaluator: surrogateEval(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RawTrials != 96 {
		t.Fatalf("pruned raw trials %d, want 96", res.RawTrials)
	}
	if len(res.FrontIdx) == 0 {
		t.Fatal("no front")
	}
}

func TestEnergyObjectiveAttached(t *testing.T) {
	trial, err := Measure(resnet.StockResNet18(5, 8), 92.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if trial.EnergyMJ <= 0 {
		t.Fatalf("energy %v", trial.EnergyMJ)
	}
	lean, _ := Measure(resnet.Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2,
		Padding: 1, PoolChoice: 0, InitialOutputFeature: 32, NumClasses: 2}, 94, 0)
	if lean.EnergyMJ >= trial.EnergyMJ {
		t.Fatal("lean model must use less energy")
	}
}

func TestEnergyFrontContainsThreeObjectiveFront(t *testing.T) {
	res := fullRun(t)
	front3 := map[string]bool{}
	for _, f := range res.NonDominated() {
		front3[f.Config.Key()+f.Config.Canonical().Key()] = true
	}
	front4 := res.NonDominatedWithEnergy()
	if len(front4) < len(res.FrontIdx) {
		t.Fatalf("4-objective front smaller: %d vs %d", len(front4), len(res.FrontIdx))
	}
	// Every 3-objective front member must appear in the 4-objective front.
	keys4 := map[string]bool{}
	for _, f := range front4 {
		keys4[f.Config.Key()+f.Config.Canonical().Key()] = true
	}
	for k := range front3 {
		if !keys4[k] {
			t.Fatalf("3-objective front member %s missing from 4-objective front", k)
		}
	}
}

// TestMeasureLowersOnce bounds what one trial's measurement allocates. Three
// lowerings per trial — two kernel graphs and a full export graph only to
// add up its bytes — cost 483 allocations; one layer list feeding all three
// objectives must stay under half of that.
func TestMeasureLowersOnce(t *testing.T) {
	cfg := resnet.StockResNet18(5, 8)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Measure(cfg, 90, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 240 {
		t.Errorf("Measure allocates %.0f times per trial, want at most 240", allocs)
	}
}
