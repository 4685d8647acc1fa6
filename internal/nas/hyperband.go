package nas

import (
	"fmt"
	"math"

	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// HyperbandOptions configures a Hyperband run over PaperSpace().
type HyperbandOptions struct {
	// Combo fixes the input combination.
	Combo InputCombo
	// Seed drives candidate sampling.
	Seed uint64
	// Workers is per-round parallelism.
	Workers int
}

// HyperbandResult reports the run.
type HyperbandResult struct {
	// Best is the overall best full-budget trial.
	Best TrialResult
	// Brackets records each bracket's (initial candidates, initial budget,
	// best accuracy found).
	Brackets []struct {
		Candidates int
		Budget     float64
		BestAcc    float64
	}
	// TotalBudget sums fidelity-weighted evaluations.
	TotalBudget float64
}

// Hyperband runs hyperbandSMax+1 brackets at halving factor hyperbandEta
// (3, as in Li et al.): their first rungs sit at budgets 1/9, 1/3 and 1.
const (
	hyperbandEta  = 3
	hyperbandSMax = 2
)

// Hyperband (Li et al., 2018) hedges successive halving's
// budget-vs-breadth trade-off by running several brackets: an aggressive
// one starting many candidates at tiny budget, through a conservative one
// evaluating few candidates at full budget. Candidates are sampled
// uniformly from the space per bracket.
func Hyperband(eval BudgetedEvaluator, opts HyperbandOptions) (HyperbandResult, error) {
	if eval == nil {
		return HyperbandResult{}, fmt.Errorf("nas: Hyperband needs an evaluator")
	}
	space := PaperSpace()
	if opts.Combo == (InputCombo{}) {
		opts.Combo = InputCombo{Channels: 7, Batch: 16}
	}
	rng := tensor.NewRNG(opts.Seed ^ 0x4B1D)

	var res HyperbandResult
	res.Best = TrialResult{Accuracy: -1}
	for s := hyperbandSMax; s >= 0; s-- {
		// Bracket s: n candidates at budget eta^-s.
		n := int(math.Ceil(float64(hyperbandSMax+1) / float64(s+1) * math.Pow(hyperbandEta, float64(s))))
		budget := math.Pow(hyperbandEta, float64(-s))
		configs := make([]resnet.Config, n)
		for i := range configs {
			configs[i] = space.RandomConfig(opts.Combo, rng)
		}
		sh, err := SuccessiveHalving(configs, eval, SHOptions{
			Eta: hyperbandEta, MinBudget: budget, Workers: opts.Workers,
		})
		if err != nil {
			return HyperbandResult{}, err
		}
		res.TotalBudget += sh.TotalBudget
		bracketBest := -1.0
		if len(sh.Survivors) > 0 {
			bracketBest = sh.Survivors[0].Accuracy
			if sh.Survivors[0].Accuracy > res.Best.Accuracy {
				res.Best = sh.Survivors[0]
			}
		}
		res.Brackets = append(res.Brackets, struct {
			Candidates int
			Budget     float64
			BestAcc    float64
		}{n, budget, bracketBest})
	}
	return res, nil
}
