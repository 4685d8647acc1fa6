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

// NSGA2Options configures the direct multi-objective search.
type NSGA2Options struct {
	// Space defaults to nas.PaperSpace().
	Space nas.Space
	// Combo selects the input combination to search within.
	Combo nas.InputCombo
	// Evaluator scores candidate accuracy; required.
	Evaluator nas.Evaluator
	// Population size (default 24) and Generations (default 12).
	Population  int
	Generations int
	// MutationRate is the per-child probability of an extra axis mutation
	// on top of crossover (default 0.3).
	MutationRate float64
	// InputSize for latency prediction (default latmeter's).
	InputSize int
	// Seed drives all randomness.
	Seed uint64
	// Workers is evaluation parallelism per generation, for accuracy and
	// for measuring the generation's new individuals.
	Workers int
	// Precisions lists the deployment precisions the search may assign to
	// an architecture ("fp32", "int8"). Default is fp32 only, which keeps
	// the classic 3-objective behavior bit-for-bit. With more than one
	// entry each individual is a (config, precision) pair, objectives grow
	// a fourth axis (precision bits, minimized), and int8 individuals carry
	// the int8 cost model's latency, energy and size. Accuracy evaluation is shared
	// across precisions of the same config — the expensive part of the
	// budget is spent once.
	Precisions []string
}

// individual is one NSGA-II population member: an architecture plus the
// precision it would deploy at.
type individual struct {
	cfg  resnet.Config
	prec string
}

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
	if opts.Space.RawSize() == 0 {
		opts.Space = nas.PaperSpace()
	}
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
	mut := opts.MutationRate
	if mut <= 0 {
		mut = 0.3
	}
	rng := tensor.NewRNG(opts.Seed ^ 0x45A2)

	precs := opts.Precisions
	if len(precs) == 0 {
		precs = []string{PrecisionFP32}
	}
	for _, p := range precs {
		if p != PrecisionFP32 && p != PrecisionInt8 {
			return nil, fmt.Errorf("core: unknown precision %q", p)
		}
	}
	// An fp32-only search keeps the paper's 3 objectives (and the classic
	// behavior, draw for draw); any search that deploys int8 gains the
	// precision-bits axis.
	objs := Objectives
	points := trialPoints
	if len(precs) > 1 || precs[0] != PrecisionFP32 {
		objs = QuantObjectives
		points = quantTrialPoints
	}

	// Accuracy is cached per raw config — fp32 and int8 forms of the same
	// architecture share the expensive evaluation — while measured trials
	// are cached per (config, precision) pair.
	accCache := make(map[resnet.Config]float64)
	cache := make(map[individual]Trial)
	evaluate := func(inds []individual) ([]Trial, error) {
		// The uncached individuals, first occurrence first, and the configs
		// among them with no accuracy yet.
		var miss []individual
		var accMiss []resnet.Config
		seen := make(map[individual]bool)
		seenCfg := make(map[resnet.Config]bool)
		for _, ind := range inds {
			if _, ok := cache[ind]; ok || seen[ind] {
				continue
			}
			seen[ind] = true
			miss = append(miss, ind)
			if _, ok := accCache[ind.cfg]; !ok && !seenCfg[ind.cfg] {
				seenCfg[ind.cfg] = true
				accMiss = append(accMiss, ind.cfg)
			}
		}
		accs := make([]float64, len(accMiss))
		errs := make([]error, len(accMiss))
		parallel.Map(len(accMiss), opts.Workers, func(i int) {
			accs[i], errs[i] = opts.Evaluator.Evaluate(accMiss[i])
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for i, cfg := range accMiss {
			accCache[cfg] = accs[i]
		}
		// Measurement fans out like accuracy; the cache is written only
		// once every worker is done.
		trials, _, err := measureAll(len(miss), opts.Workers, func(i int) (Trial, error) {
			return measure(miss[i].cfg, accCache[miss[i].cfg], opts.InputSize, miss[i].prec)
		})
		if err != nil {
			return nil, err
		}
		for i, ind := range miss {
			cache[ind] = trials[i]
		}
		out := make([]Trial, len(inds))
		for i, ind := range inds {
			out[i] = cache[ind]
		}
		return out, nil
	}

	// Initial population; precisions round-robin so both forms seed the
	// front without spending extra randomness.
	parents := make([]individual, pop)
	for i := range parents {
		parents[i] = individual{
			cfg:  opts.Space.RandomConfig(opts.Combo, rng),
			prec: precs[i%len(precs)],
		}
	}
	parentTrials, err := evaluate(parents)
	if err != nil {
		return nil, err
	}

	for g := 0; g < gens; g++ {
		ranks, crowd := rankAndCrowd(parentTrials, points, objs)
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
		offspring := make([]individual, pop)
		for i := range offspring {
			pa, pb := tournament(), tournament()
			child := opts.Space.Crossover(parents[pa].cfg, parents[pb].cfg, rng)
			if rng.Float64() < mut {
				child = opts.Space.Mutate(child, rng)
			}
			prec := parents[pa].prec
			if len(precs) > 1 {
				if rng.Intn(2) == 1 {
					prec = parents[pb].prec
				}
				if rng.Float64() < mut {
					prec = precs[rng.Intn(len(precs))]
				}
			}
			offspring[i] = individual{cfg: child, prec: prec}
		}
		offspringTrials, err := evaluate(offspring)
		if err != nil {
			return nil, err
		}

		// Environmental selection over the merged population.
		merged := append(append([]individual{}, parents...), offspring...)
		mergedTrials := append(append([]Trial{}, parentTrials...), offspringTrials...)
		sel := environmentalSelect(mergedTrials, pop, points, objs)
		parents = parents[:0]
		parentTrials = parentTrials[:0]
		for _, idx := range sel {
			parents = append(parents, merged[idx])
			parentTrials = append(parentTrials, mergedTrials[idx])
		}
	}

	res := &NSGA2Result{Evaluated: len(accCache)}
	for _, t := range cache {
		res.AllTrials = append(res.AllTrials, t)
	}
	// Final front from the last population.
	pts := points(parentTrials)
	for _, i := range pareto.NonDominated(pts, objs) {
		res.Front = append(res.Front, parentTrials[i])
	}
	sort.Slice(res.Front, func(a, b int) bool { return res.Front[a].Accuracy > res.Front[b].Accuracy })
	res.Front = dedupeTrials(res.Front)
	return res, nil
}

func trialPoints(trials []Trial) []pareto.Point {
	pts := make([]pareto.Point, len(trials))
	for i, t := range trials {
		pts[i] = pareto.Point{ID: i, Values: []float64{t.Accuracy, t.LatencyMS, t.MemoryMB}}
	}
	return pts
}

// rankAndCrowd computes each member's front rank and crowding distance
// under the given objective projection.
func rankAndCrowd(trials []Trial, points func([]Trial) []pareto.Point, objs []pareto.Direction) (ranks []int, crowd []float64) {
	pts := points(trials)
	fronts := pareto.Fronts(pts, objs)
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
func environmentalSelect(trials []Trial, keep int, points func([]Trial) []pareto.Point, objs []pareto.Direction) []int {
	pts := points(trials)
	fronts := pareto.Fronts(pts, objs)
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

// dedupeTrials removes trials with identical canonical configurations at
// the same precision — the fp32 and int8 forms of one architecture are
// distinct front members.
func dedupeTrials(trials []Trial) []Trial {
	seen := make(map[string]bool, len(trials))
	var out []Trial
	for _, t := range trials {
		key := t.Config.Key()
		if t.Precision == PrecisionInt8 {
			key += "@int8"
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, t)
	}
	return out
}
