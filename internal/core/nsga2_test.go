package core

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"

	"drainnas/internal/latmeter"
	"drainnas/internal/nas"
	"drainnas/internal/pareto"
)

func TestNSGA2FindsGoodFrontCheaply(t *testing.T) {
	combo := nas.InputCombo{Channels: 7, Batch: 16}
	res, err := NSGA2(NSGA2Options{
		Combo:      combo,
		Evaluator:  surrogateEval(),
		Population: 24, Generations: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty NSGA-II front")
	}
	// Budget must be well below the 288-config grid.
	if res.Evaluated >= 288 {
		t.Fatalf("NSGA-II evaluated %d configs — no cheaper than grid", res.Evaluated)
	}

	// Compare against the exhaustive sweep's front for the same combo.
	grid, err := Run(Options{
		Combos:    []nas.InputCombo{combo},
		Evaluator: surrogateEval(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gridFront := grid.NonDominated()
	// NSGA-II's best accuracy within 1 point of the grid's best.
	if res.Front[0].Accuracy < gridFront[0].Accuracy-1.0 {
		t.Fatalf("NSGA-II best %.2f vs grid best %.2f", res.Front[0].Accuracy, gridFront[0].Accuracy)
	}
	// Hypervolume comparison: NSGA-II's front should capture most of the
	// grid front's hypervolume under a shared reference.
	gridPts := trialPoints(grid.Trials)
	ref := pareto.ReferenceFromWorst(gridPts, Objectives, 0.05)
	hvGrid := pareto.Hypervolume(frontPoints(gridFront), Objectives, ref)
	hvNSGA := pareto.Hypervolume(frontPoints(res.Front), Objectives, ref)
	if hvNSGA < 0.85*hvGrid {
		t.Fatalf("NSGA-II hypervolume %.1f below 85%% of grid's %.1f", hvNSGA, hvGrid)
	}
}

func frontPoints(trials []Trial) []pareto.Point {
	return trialPoints(trials)
}

func TestNSGA2FrontIsNonDominatedAndSorted(t *testing.T) {
	res, err := NSGA2(NSGA2Options{
		Evaluator:  surrogateEval(),
		Population: 16, Generations: 6, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := frontPoints(res.Front)
	for i := range pts {
		for j := range pts {
			if i != j && pareto.Dominates(pts[j], pts[i], Objectives) {
				t.Fatalf("front member %d dominated by %d", i, j)
			}
		}
	}
	for i := 1; i < len(res.Front); i++ {
		if res.Front[i].Accuracy > res.Front[i-1].Accuracy {
			t.Fatal("front not sorted by accuracy")
		}
	}
	// No duplicate canonical configs on the front.
	seen := map[string]bool{}
	for _, f := range res.Front {
		if seen[f.Config.Key()] {
			t.Fatal("duplicate canonical config on front")
		}
		seen[f.Config.Key()] = true
	}
}

// TestNSGA2Deterministic runs the same seeded search at 1 and 4 workers,
// and twice at 4: the budget, the front and every evaluated trial agree to
// the bit.
func TestNSGA2Deterministic(t *testing.T) {
	run := func(workers int) *NSGA2Result {
		res, err := NSGA2(NSGA2Options{
			Evaluator:  surrogateEval(),
			Population: 12, Generations: 4, Seed: 77, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		// AllTrials comes out of a map; order it by raw config.
		sort.Slice(res.AllTrials, func(i, j int) bool {
			return fmt.Sprintf("%+v", res.AllTrials[i].Config) < fmt.Sprintf("%+v", res.AllTrials[j].Config)
		})
		return res
	}
	a := run(1)
	for _, b := range []*NSGA2Result{run(4), run(4)} {
		if a.Evaluated != b.Evaluated || len(a.Front) != len(b.Front) || len(a.AllTrials) != len(b.AllTrials) {
			t.Fatalf("nondeterministic: %d/%d/%d vs %d/%d/%d", a.Evaluated, len(a.Front), len(a.AllTrials),
				b.Evaluated, len(b.Front), len(b.AllTrials))
		}
		for i := range a.Front {
			if !sameTrial(a.Front[i], b.Front[i]) {
				t.Fatalf("front member %d differs:\n%+v\n%+v", i, a.Front[i], b.Front[i])
			}
		}
		for i := range a.AllTrials {
			if !sameTrial(a.AllTrials[i], b.AllTrials[i]) {
				t.Fatalf("evaluated trial %d differs:\n%+v\n%+v", i, a.AllTrials[i], b.AllTrials[i])
			}
		}
	}
}

func TestNSGA2RequiresEvaluator(t *testing.T) {
	if _, err := NSGA2(NSGA2Options{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestNSGA2RespectsCombo(t *testing.T) {
	combo := nas.InputCombo{Channels: 5, Batch: 32}
	res, err := NSGA2(NSGA2Options{
		Combo: combo, Evaluator: surrogateEval(),
		Population: 8, Generations: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, t2 := range res.AllTrials {
		if t2.Config.Channels != 5 || t2.Config.Batch != 32 {
			t.Fatalf("trial escaped the input combo: %+v", t2.Config)
		}
	}
}

// searchPin is the seed-77 fp32 search rendered by describeSearch, captured
// at the commit before NSGA-II lost its int8 precision axis: the fp32 path
// must keep drawing the same random numbers and measuring the same bits.
const searchPin = "testdata/nsga2_seed77.pin"

// describeSearch renders a search result one trial per line, floats in
// their shortest round-tripping form: the budget, the front in its
// reported order, then every evaluated trial ordered by raw config (Key()
// ties on pool-less configs).
func describeSearch(res *NSGA2Result) []byte {
	var b bytes.Buffer
	line := func(t Trial) {
		f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		fmt.Fprintf(&b, "%+v acc=%s lat=%s std=%s mem=%s energy=%s", t.Config,
			f(t.Accuracy), f(t.LatencyMS), f(t.LatStdMS), f(t.MemoryMB), f(t.EnergyMJ))
		devs := latmeter.Devices()
		byName := make([]int, len(devs))
		for i := range byName {
			byName[i] = i
		}
		sort.Slice(byName, func(i, j int) bool { return devs[byName[i]].Name < devs[byName[j]].Name })
		for _, i := range byName {
			fmt.Fprintf(&b, " %s=%s", devs[i].Name, f(t.PerDevice[i]))
		}
		b.WriteByte('\n')
	}
	all := append([]Trial(nil), res.AllTrials...)
	sort.Slice(all, func(i, j int) bool {
		return fmt.Sprintf("%+v", all[i].Config) < fmt.Sprintf("%+v", all[j].Config)
	})
	fmt.Fprintf(&b, "evaluated %d\nfront %d\n", res.Evaluated, len(res.Front))
	for _, t := range res.Front {
		line(t)
	}
	fmt.Fprintf(&b, "all %d\n", len(all))
	for _, t := range all {
		line(t)
	}
	return b.Bytes()
}

// TestNSGA2DefaultPrecisionStaysThreeObjective pins the 3-objective fp32
// search to the bits captured in searchPin: its front, every evaluated
// trial and the budget.
func TestNSGA2DefaultPrecisionStaysThreeObjective(t *testing.T) {
	res, err := NSGA2(NSGA2Options{
		Evaluator:  surrogateEval(),
		Population: 12, Generations: 4, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(searchPin)
	if err != nil {
		t.Fatal(err)
	}
	if got := describeSearch(res); !bytes.Equal(got, want) {
		t.Errorf("%s differs from the captured search\n--- got\n%s--- want\n%s", searchPin, got, want)
	}
}
