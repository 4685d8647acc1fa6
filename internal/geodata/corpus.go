package geodata

import (
	"fmt"
	"strings"

	"drainnas/internal/parallel"
	"drainnas/internal/tensor"
)

// CorpusOptions configures corpus generation over the StudyRegions.
type CorpusOptions struct {
	// ChipSize is the square chip side in pixels.
	ChipSize int
	// Scale divides every Table 1 sample count (minimum 1 per class per
	// region), so tests and CPU-bound runs can use a miniature corpus with
	// the same structure. Scale 1 reproduces the full 12,068 chips.
	Scale int
	// Seed makes generation reproducible.
	Seed uint64
}

// Corpus is the generated chip collection.
type Corpus struct {
	Chips    []Chip
	ChipSize int
}

// scaledCount divides a Table 1 count by scale, keeping at least one sample.
func scaledCount(count, scale int) int {
	if scale <= 1 {
		return count
	}
	c := count / scale
	if c < 1 {
		c = 1
	}
	return c
}

// GenerateCorpus synthesizes a balanced corpus across the study regions.
// Chips are generated in parallel; each chip derives its RNG from the seed
// and its position, so the corpus is reproducible regardless of parallelism.
func GenerateCorpus(opts CorpusOptions) *Corpus {
	if opts.ChipSize <= 0 {
		opts.ChipSize = 64
	}
	if opts.Scale <= 0 {
		opts.Scale = 1
	}

	type job struct {
		region Region
		label  int
		seq    int
	}
	var jobs []job
	seq := 0
	for _, r := range StudyRegions {
		nTrue := scaledCount(r.TrueSamples, opts.Scale)
		nFalse := scaledCount(r.FalseSamples, opts.Scale)
		for i := 0; i < nTrue; i++ {
			jobs = append(jobs, job{r, 1, seq})
			seq++
		}
		for i := 0; i < nFalse; i++ {
			jobs = append(jobs, job{r, 0, seq})
			seq++
		}
	}

	chips := make([]Chip, len(jobs))
	parallel.Map(len(jobs), 0, func(i int) {
		j := jobs[i]
		rng := tensor.NewRNG(opts.Seed ^ (uint64(j.seq)+1)*0x9E3779B97F4A7C15)
		chips[i] = GenerateChip(j.region, j.label, opts.ChipSize, rng)
	})
	return &Corpus{Chips: chips, ChipSize: opts.ChipSize}
}

// CountByRegion tallies (true, false) chips per region name.
func (c *Corpus) CountByRegion() map[string][2]int {
	out := make(map[string][2]int)
	for _, chip := range c.Chips {
		v := out[chip.Region]
		if chip.Label == 1 {
			v[0]++
		} else {
			v[1]++
		}
		out[chip.Region] = v
	}
	return out
}

// Balance returns the fraction of positive chips.
func (c *Corpus) Balance() float64 {
	if len(c.Chips) == 0 {
		return 0
	}
	pos := 0
	for _, chip := range c.Chips {
		pos += chip.Label
	}
	return float64(pos) / float64(len(c.Chips))
}

// Table1 renders the corpus inventory in the layout of the paper's Table 1.
func (c *Corpus) Table1() string {
	counts := c.CountByRegion()
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-10s %6s %6s %6s\n", "Location", "DEM res", "True", "False", "Total")
	totT, totF := 0, 0
	for _, r := range StudyRegions {
		v := counts[r.Name]
		fmt.Fprintf(&b, "%-14s %-10s %6d %6d %6d\n",
			r.Name, fmt.Sprintf("%.2gm", r.DEMResolution), v[0], v[1], v[0]+v[1])
		totT += v[0]
		totF += v[1]
	}
	fmt.Fprintf(&b, "%-14s %-10s %6d %6d %6d\n", "All", "", totT, totF, totT+totF)
	return b.String()
}

// Tensors lays the corpus out as one (N, channels, S, S) tensor and a label
// slice. channels must be 5 (DEM+R+G+B+NIR) or 7 (adding NDVI+NDWI),
// matching the paper's two input variants.
func (c *Corpus) Tensors(channels int) (*tensor.Tensor, []int) {
	if channels != 5 && channels != 7 {
		panic(fmt.Sprintf("geodata: corpus supports 5 or 7 channels, got %d", channels))
	}
	n := len(c.Chips)
	s := c.ChipSize
	x := tensor.New(n, channels, s, s)
	labels := make([]int, n)
	plane := s * s
	for i, chip := range c.Chips {
		labels[i] = chip.Label
		dst := x.Data()[i*channels*plane : (i+1)*channels*plane]
		copy(dst, chip.Bands[:channels*plane])
	}
	return x, labels
}
