package core

import (
	"fmt"
	"math"
	"sort"

	"drainnas/internal/nas"
	"drainnas/internal/parallel"
	"drainnas/internal/pareto"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// NSGA2Options configures the direct multi-objective search over
// nas.PaperSpace().
type NSGA2Options struct {
	// Combo selects the input combination to search within.
	Combo nas.InputCombo
	// Evaluator scores candidate accuracy; required.
	Evaluator nas.Evaluator
	// Population size (default 24) and Generations (default 12).
	Population  int
	Generations int
	// Seed drives all randomness.
	Seed uint64
	// Workers is evaluation parallelism per generation, for accuracy and
	// for measuring the generation's new individuals.
	Workers int
}

// mutationRate is the per-child probability of an extra axis mutation on
// top of crossover.
const mutationRate = 0.3

// NSGA2Result reports the search outcome.
type NSGA2Result struct {
	// Front is the non-dominated set of the final population, best accuracy
	// first.
	Front []Trial
	// Evaluated counts distinct configurations scored — the search budget
	// actually spent, to compare with the 288-config grid.
	Evaluated int
	// AllTrials holds every distinct evaluated configuration with its
	// objectives.
	AllTrials []Trial
}

// NSGA2 searches the space directly for the Pareto front of (accuracy,
// latency, memory) with the NSGA-II evolutionary algorithm (Deb et al.,
// 2002): fast non-dominated sorting ranks a merged parent+offspring
// population, crowding distance breaks ties, and binary tournaments on
// (rank, crowding) select parents. Compared with the paper's exhaustive
// sweep + post-hoc Pareto extraction, NSGA-II reaches a comparable front
// with a fraction of the evaluations — the scaling direction the paper's
// §5 asks for.
func NSGA2(opts NSGA2Options) (*NSGA2Result, error) {
	if opts.Evaluator == nil {
		return nil, fmt.Errorf("core: NSGA2Options.Evaluator is required")
	}
	space := nas.PaperSpace()
	if opts.Combo == (nas.InputCombo{}) {
		opts.Combo = nas.InputCombo{Channels: 7, Batch: 16}
	}
	pop := opts.Population
	if pop < 4 {
		pop = 24
	}
	gens := opts.Generations
	if gens <= 0 {
		gens = 12
	}
	rng := tensor.NewRNG(opts.Seed ^ 0x45A2)

	cache := make(map[resnet.Config]Trial)
	evaluate := func(cfgs []resnet.Config) ([]Trial, error) {
		// The uncached configs, first occurrence first.
		var miss []resnet.Config
		seen := make(map[resnet.Config]bool)
		for _, cfg := range cfgs {
			if _, ok := cache[cfg]; ok || seen[cfg] {
				continue
			}
			seen[cfg] = true
			miss = append(miss, cfg)
		}
		accs := make([]float64, len(miss))
		errs := make([]error, len(miss))
		parallel.Map(len(miss), opts.Workers, func(i int) {
			accs[i], errs[i] = opts.Evaluator.Evaluate(miss[i])
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		// Measurement fans out like accuracy; the cache is written only
		// once every worker is done.
		trials, _, err := measureAll(len(miss), opts.Workers, func(i int) (Trial, error) {
			return Measure(miss[i], accs[i], 0)
		})
		if err != nil {
			return nil, err
		}
		for i, cfg := range miss {
			cache[cfg] = trials[i]
		}
		out := make([]Trial, len(cfgs))
		for i, cfg := range cfgs {
			out[i] = cache[cfg]
		}
		return out, nil
	}

	parents := make([]resnet.Config, pop)
	for i := range parents {
		parents[i] = space.RandomConfig(opts.Combo, rng)
	}
	parentTrials, err := evaluate(parents)
	if err != nil {
		return nil, err
	}

	for g := 0; g < gens; g++ {
		ranks, crowd := rankAndCrowd(parentTrials)
		tournament := func() int {
			a, b := rng.Intn(len(parents)), rng.Intn(len(parents))
			if ranks[a] < ranks[b] {
				return a
			}
			if ranks[b] < ranks[a] {
				return b
			}
			if crowd[a] > crowd[b] {
				return a
			}
			return b
		}
		offspring := make([]resnet.Config, pop)
		for i := range offspring {
			pa, pb := tournament(), tournament()
			child := space.Crossover(parents[pa], parents[pb], rng)
			if rng.Float64() < mutationRate {
				child = space.Mutate(child, rng)
			}
			offspring[i] = child
		}
		offspringTrials, err := evaluate(offspring)
		if err != nil {
			return nil, err
		}

		// Environmental selection over the merged population.
		merged := append(append([]resnet.Config{}, parents...), offspring...)
		mergedTrials := append(append([]Trial{}, parentTrials...), offspringTrials...)
		sel := environmentalSelect(mergedTrials, pop)
		parents = parents[:0]
		parentTrials = parentTrials[:0]
		for _, idx := range sel {
			parents = append(parents, merged[idx])
			parentTrials = append(parentTrials, mergedTrials[idx])
		}
	}

	res := &NSGA2Result{Evaluated: len(cache)}
	for _, t := range cache {
		res.AllTrials = append(res.AllTrials, t)
	}
	// Final front from the last population.
	for _, i := range pareto.NonDominated(trialPoints(parentTrials), Objectives) {
		res.Front = append(res.Front, parentTrials[i])
	}
	sort.Slice(res.Front, func(a, b int) bool { return res.Front[a].Accuracy > res.Front[b].Accuracy })
	res.Front = dedupeTrials(res.Front)
	return res, nil
}

func trialPoints(trials []Trial) []pareto.Point {
	pts := make([]pareto.Point, len(trials))
	vals := make([]float64, 3*len(trials)) // one backing array for every point
	for i, t := range trials {
		v := vals[3*i : 3*i+3 : 3*i+3]
		v[0], v[1], v[2] = t.Accuracy, t.LatencyMS, t.MemoryMB
		pts[i] = pareto.Point{ID: i, Values: v}
	}
	return pts
}

// rankAndCrowd computes each member's front rank and crowding distance.
func rankAndCrowd(trials []Trial) (ranks []int, crowd []float64) {
	pts := trialPoints(trials)
	fronts := pareto.Fronts(pts, Objectives)
	ranks = make([]int, len(trials))
	crowd = make([]float64, len(trials))
	for r, front := range fronts {
		dist := pareto.CrowdingDistance(pts, front)
		for k, idx := range front {
			ranks[idx] = r
			crowd[idx] = dist[k]
		}
	}
	return ranks, crowd
}

// environmentalSelect keeps the best `keep` members by (rank, crowding).
func environmentalSelect(trials []Trial, keep int) []int {
	pts := trialPoints(trials)
	fronts := pareto.Fronts(pts, Objectives)
	var selected []int
	for _, front := range fronts {
		if len(selected)+len(front) <= keep {
			selected = append(selected, front...)
			continue
		}
		// Partial front: take the most crowded-distant members.
		dist := pareto.CrowdingDistance(pts, front)
		order := make([]int, len(front))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			da, db := dist[order[a]], dist[order[b]]
			if math.IsInf(da, 1) && !math.IsInf(db, 1) {
				return true
			}
			if math.IsInf(db, 1) && !math.IsInf(da, 1) {
				return false
			}
			return da > db
		})
		for _, oi := range order {
			if len(selected) == keep {
				break
			}
			selected = append(selected, front[oi])
		}
		break
	}
	return selected
}

// dedupeTrials removes trials with identical canonical configurations.
func dedupeTrials(trials []Trial) []Trial {
	seen := make(map[string]bool, len(trials))
	var out []Trial
	for _, t := range trials {
		key := t.Config.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, t)
	}
	return out
}
