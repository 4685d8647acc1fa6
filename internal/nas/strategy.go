package nas

import (
	"sort"

	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// The search strategies select which configurations to evaluate from a
// space — the NNI "search strategy" axis. The paper uses exhaustive grid
// search; random and evolutionary strategies are provided for the
// sample-efficiency ablation.

// GridStrategy enumerates the whole space (the paper's approach).
type GridStrategy struct{}

// Select returns every raw configuration.
func (GridStrategy) Select(space Space, combo InputCombo) []resnet.Config {
	return space.Enumerate(combo)
}

// RandomStrategy samples N distinct configurations uniformly.
type RandomStrategy struct {
	N    int
	Seed uint64
}

// Select samples without replacement from the enumerated space.
func (s RandomStrategy) Select(space Space, combo InputCombo) []resnet.Config {
	all := space.Enumerate(combo)
	if s.N >= len(all) {
		return all
	}
	rng := tensor.NewRNG(s.Seed)
	perm := rng.Perm(len(all))
	out := make([]resnet.Config, s.N)
	for i := 0; i < s.N; i++ {
		out[i] = all[perm[i]]
	}
	return out
}

// EvolutionStrategy implements regularized evolution (Real et al., 2019)
// over the discrete space: a sliding population where each step tournaments
// a parent, mutates one axis, and retires the oldest member. It needs an
// evaluator to guide the search, so Select runs the search internally and
// returns every configuration it visited, in visit order.
type EvolutionStrategy struct {
	Population int
	Cycles     int
	SampleSize int // tournament size
	Seed       uint64
	Evaluator  Evaluator
}

type evoMember struct {
	cfg resnet.Config
	fit float64
}

// Select runs the evolutionary search and returns the visited
// configurations in order (deduplicated).
func (s EvolutionStrategy) Select(space Space, combo InputCombo) []resnet.Config {
	pop := s.Population
	if pop < 4 {
		pop = 16
	}
	cycles := s.Cycles
	if cycles <= 0 {
		cycles = 64
	}
	sample := s.SampleSize
	if sample < 2 {
		sample = 3
	}
	rng := tensor.NewRNG(s.Seed ^ 0xEB01)
	evalFit := func(cfg resnet.Config) float64 {
		if s.Evaluator == nil {
			return 0
		}
		acc, err := s.Evaluator.Evaluate(cfg)
		if err != nil {
			return 0
		}
		return acc
	}

	var visited []resnet.Config
	var population []evoMember
	for i := 0; i < pop; i++ {
		c := space.RandomConfig(combo, rng)
		visited = append(visited, c)
		population = append(population, evoMember{cfg: c, fit: evalFit(c)})
	}
	for cyc := 0; cyc < cycles; cyc++ {
		// Tournament selection.
		best := -1
		for t := 0; t < sample; t++ {
			i := rng.Intn(len(population))
			if best < 0 || population[i].fit > population[best].fit {
				best = i
			}
		}
		child := space.Mutate(population[best].cfg, rng)
		visited = append(visited, child)
		population = append(population, evoMember{cfg: child, fit: evalFit(child)})
		// Regularized evolution retires the oldest, not the worst.
		population = population[1:]
	}
	return UniqueConfigs(visited)
}

func pick(rng *tensor.RNG, vals []int) int { return vals[rng.Intn(len(vals))] }

// pickOther picks a value different from cur when the axis has any
// alternative.
func pickOther(rng *tensor.RNG, vals []int, cur int) int {
	if len(vals) < 2 {
		return vals[0]
	}
	for {
		v := pick(rng, vals)
		if v != cur {
			return v
		}
	}
}

// TopK returns the k best successful trials by accuracy, descending.
func TopK(results []TrialResult, k int) []TrialResult {
	ok := Succeeded(results)
	sort.Slice(ok, func(a, b int) bool { return ok[a].Accuracy > ok[b].Accuracy })
	if k > len(ok) {
		k = len(ok)
	}
	return ok[:k]
}
