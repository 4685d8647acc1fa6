// Package nas implements the neural-architecture-search driver that stands
// in for NNI Retiarii: the paper's search space (Figure 2), exhaustive and
// sampled search strategies, k-fold trial evaluation, and a parallel
// experiment runner with a JSON trial journal.
package nas

import (
	"fmt"

	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// Space is the architectural search space of Figure 2. Every axis lists its
// admissible values.
type Space struct {
	KernelSizes     []int
	Strides         []int
	Paddings        []int
	PoolChoices     []int
	KernelSizePools []int
	StridePools     []int
	InitialFeatures []int
	NumClasses      int
}

// PaperSpace returns the exact search space of the paper: 2 kernel sizes ×
// 2 strides × 3 paddings for the initial convolution, pool on/off with 2
// pool kernels × 2 pool strides, and 3 initial feature widths — 288 raw
// configurations per input combination.
func PaperSpace() Space {
	return Space{
		KernelSizes:     []int{3, 7},
		Strides:         []int{1, 2},
		Paddings:        []int{1, 2, 3},
		PoolChoices:     []int{0, 1},
		KernelSizePools: []int{2, 3},
		StridePools:     []int{1, 2},
		InitialFeatures: []int{32, 48, 64},
		NumClasses:      2,
	}
}

// RawSize returns the number of raw configurations per input combination
// (including the no-pool duplicates the paper notes may coincide).
func (s Space) RawSize() int {
	return len(s.KernelSizes) * len(s.Strides) * len(s.Paddings) *
		len(s.PoolChoices) * len(s.KernelSizePools) * len(s.StridePools) *
		len(s.InitialFeatures)
}

// InputCombo is one of the paper's six input-data combinations.
type InputCombo struct {
	Channels int `json:"channels"`
	Batch    int `json:"batch"`
}

// PaperInputCombos returns the six benchmark variants: {5, 7} channels ×
// {8, 16, 32} batch.
func PaperInputCombos() []InputCombo {
	var combos []InputCombo
	for _, ch := range []int{5, 7} {
		for _, b := range []int{8, 16, 32} {
			combos = append(combos, InputCombo{Channels: ch, Batch: b})
		}
	}
	return combos
}

// Enumerate lists every raw configuration of the space for one input
// combination, in a fixed lexicographic axis order.
func (s Space) Enumerate(combo InputCombo) []resnet.Config {
	return s.appendEnumerate(make([]resnet.Config, 0, s.RawSize()), combo)
}

func (s Space) appendEnumerate(out []resnet.Config, combo InputCombo) []resnet.Config {
	for _, k := range s.KernelSizes {
		for _, st := range s.Strides {
			for _, p := range s.Paddings {
				for _, pool := range s.PoolChoices {
					for _, kp := range s.KernelSizePools {
						for _, sp := range s.StridePools {
							for _, f := range s.InitialFeatures {
								out = append(out, resnet.Config{
									Channels: combo.Channels, Batch: combo.Batch,
									KernelSize: k, Stride: st, Padding: p,
									PoolChoice: pool, KernelSizePool: kp, StridePool: sp,
									InitialOutputFeature: f, NumClasses: s.NumClasses,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// EnumerateAll lists the raw configurations across all input combinations:
// the paper's 6 × 288 = 1,728 raw trials.
func (s Space) EnumerateAll(combos []InputCombo) []resnet.Config {
	out := make([]resnet.Config, 0, s.RawSize()*len(combos))
	for _, c := range combos {
		out = s.appendEnumerate(out, c)
	}
	return out
}

// GraphIndex numbers the inference networks of EnumerateAll(combos)
// without looking at a configuration: the one at index id builds network
// GraphIndex(combos, id), a number below len(combos) * RawSize(). Equal
// numbers mean equal resnet.Config.Graph, since the number leaves out what
// Graph clears — the combination's batch size, and the pool kernel and
// stride of a stem without a pool. (An axis that lists a value twice gives
// one network two numbers.)
func (s Space) GraphIndex(combos []InputCombo, id int) int {
	raw := s.RawSize()
	c, local := id/raw, id%raw
	for first := range combos[:c] {
		if combos[first].Channels == combos[c].Channels {
			c = first
			break
		}
	}
	// appendEnumerate's innermost axes are pool kernel, pool stride and
	// width: one pool choice spans len(KernelSizePools) * len(StridePools)
	// * len(InitialFeatures) configurations.
	widths := len(s.InitialFeatures)
	pools := len(s.KernelSizePools) * len(s.StridePools) * widths
	if s.PoolChoices[local/pools%len(s.PoolChoices)] == 0 {
		local += local%widths - local%pools // pool kernel and stride → their first values
	}
	return c*raw + local
}

// UniqueConfigs removes configurations that build identical networks (the
// no-pool duplicates, via resnet.Config.Canonical), preserving first-seen
// order.
func UniqueConfigs(configs []resnet.Config) []resnet.Config {
	seen := make(map[string]bool, len(configs))
	var out []resnet.Config
	for _, c := range configs {
		key := c.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, c)
	}
	return out
}

// PaperValidTrialCount is the number of valid outcomes the paper reports
// out of its 1,728 raw NNI trials (11 trials did not produce a result).
const PaperValidTrialCount = 1717

// attritionSeed makes the simulated trial attrition reproduce the paper's
// valid-trial count exactly; see Attrition.
const attritionSeed uint64 = 3

// Attrition deterministically marks raw trials as failed, simulating the
// trial attrition of a real NNI run (crashed workers, CUDA OOM, timeouts):
// the paper obtained 1,717 valid outcomes from 1,728 raw trials. The
// decision is a pure function of the trial's position and identity, and the
// seed is chosen so the full paper grid loses exactly 11 trials. Which
// trials fail is not knowable from the paper; only the count is calibrated.
func Attrition(idx int, cfg resnet.Config) bool {
	h := attritionSeed ^ (uint64(idx)+1)*0x9E3779B97F4A7C15
	var buf [128]byte
	key := cfg.AppendKey(buf[:0])
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001B3
	}
	h ^= h >> 29
	// ≈11/1728 failure probability.
	return h%1728 < 11
}

// ValidTrials filters the raw trial list through Attrition, returning the
// surviving configurations and the indices of the failed ones.
func ValidTrials(configs []resnet.Config) (valid []resnet.Config, failed []int) {
	for i, c := range configs {
		if Attrition(i, c) {
			failed = append(failed, i)
			continue
		}
		valid = append(valid, c)
	}
	return valid, failed
}

// Describe renders the search space in the style of Figure 2.
func (s Space) Describe() string {
	return fmt.Sprintf(`Search space (per input combination, %d raw configurations):
  initial conv:  kernel_size %v  stride %v  padding %v
  max pooling:   pool_choice %v  kernel_size_pool %v  stride_pool %v
  backbone:      initial_output_feature %v (stages x1, x2, x4, x8)
  classifier:    %d classes`,
		s.RawSize(), s.KernelSizes, s.Strides, s.Paddings,
		s.PoolChoices, s.KernelSizePools, s.StridePools,
		s.InitialFeatures, s.NumClasses)
}

// RandomConfig draws a uniform configuration from the space for one input
// combination.
func (s Space) RandomConfig(combo InputCombo, rng *tensor.RNG) resnet.Config {
	return resnet.Config{
		Channels: combo.Channels, Batch: combo.Batch,
		KernelSize:           pick(rng, s.KernelSizes),
		Stride:               pick(rng, s.Strides),
		Padding:              pick(rng, s.Paddings),
		PoolChoice:           pick(rng, s.PoolChoices),
		KernelSizePool:       pick(rng, s.KernelSizePools),
		StridePool:           pick(rng, s.StridePools),
		InitialOutputFeature: pick(rng, s.InitialFeatures),
		NumClasses:           s.NumClasses,
	}
}

// Mutate flips one randomly chosen architectural axis of cfg to a different
// admissible value, leaving the input combination untouched.
func (s Space) Mutate(cfg resnet.Config, rng *tensor.RNG) resnet.Config {
	out := cfg
	switch rng.Intn(7) {
	case 0:
		out.KernelSize = pickOther(rng, s.KernelSizes, cfg.KernelSize)
	case 1:
		out.Stride = pickOther(rng, s.Strides, cfg.Stride)
	case 2:
		out.Padding = pickOther(rng, s.Paddings, cfg.Padding)
	case 3:
		out.PoolChoice = pickOther(rng, s.PoolChoices, cfg.PoolChoice)
	case 4:
		out.KernelSizePool = pickOther(rng, s.KernelSizePools, cfg.KernelSizePool)
	case 5:
		out.StridePool = pickOther(rng, s.StridePools, cfg.StridePool)
	default:
		out.InitialOutputFeature = pickOther(rng, s.InitialFeatures, cfg.InitialOutputFeature)
	}
	return out
}

// Crossover produces a child taking each architectural axis from one of
// the two parents uniformly at random.
func (s Space) Crossover(a, b resnet.Config, rng *tensor.RNG) resnet.Config {
	child := a
	if rng.Intn(2) == 1 {
		child.KernelSize = b.KernelSize
	}
	if rng.Intn(2) == 1 {
		child.Stride = b.Stride
	}
	if rng.Intn(2) == 1 {
		child.Padding = b.Padding
	}
	if rng.Intn(2) == 1 {
		child.PoolChoice = b.PoolChoice
	}
	if rng.Intn(2) == 1 {
		child.KernelSizePool = b.KernelSizePool
	}
	if rng.Intn(2) == 1 {
		child.StridePool = b.StridePool
	}
	if rng.Intn(2) == 1 {
		child.InitialOutputFeature = b.InitialOutputFeature
	}
	return child
}
