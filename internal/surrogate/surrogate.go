// Package surrogate provides the calibrated analytic accuracy model used to
// evaluate the full 1,717-trial sweep without GPU-scale training
// (substitution documented in DESIGN.md §2).
//
// The model is a linear effects model over the search-space axes — input
// channels, batch size, stem kernel/stride/padding, width, and the stem's
// effective output resolution — plus two stochastic components that
// reproduce the paper's observed accuracy distribution: per-trial Gaussian
// evaluation noise (5-epoch training on 5 folds is noisy) and a low tail of
// convergence failures (the paper's minimum of 76.19% is far below the bulk
// of its results). Both stochastic components are deterministic functions of
// the trial identity, so sweeps are exactly reproducible.
//
// The default coefficients are calibrated so the six stock ResNet-18
// variants land on the paper's Table 5 and the sweep's extremes land near
// Table 3; Calibrate refits the linear terms from real training runs by
// least squares, which is how the defaults were obtained at small scale.
package surrogate

import (
	"math"
	"strconv"

	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// Model holds the effect coefficients, in accuracy percentage points.
type Model struct {
	// Base is the reference accuracy: 5 channels, batch 8, kernel 7,
	// padding 2, width 32, stem output resolution 25 (quarter input).
	Base float64

	Chan7 float64 // 7 input channels instead of 5
	B16   float64 // batch 16 instead of 8
	B32   float64 // batch 32 instead of 8
	K3    float64 // 3×3 stem kernel instead of 7×7
	P1    float64 // padding 1 instead of 2
	P3    float64 // padding 3 instead of 2
	W48   float64 // width 48 instead of 32
	W64   float64 // width 64 instead of 32
	Res50 float64 // stem output at half input resolution instead of quarter
	Res1  float64 // stem output at full input resolution instead of quarter

	// NoiseStd is the per-trial evaluation noise in points.
	NoiseStd float64
	// TailBase and tail modifiers give each trial a small probability of a
	// convergence failure costing TailLo..TailHi points.
	TailBase  float64
	TailB32   float64 // extra failure probability at batch 32
	TailHiRes float64 // extra probability for full-resolution stems
	TailLo    float64
	TailHi    float64
	// Seed fixes the stochastic components.
	Seed uint64
}

// Default returns the calibrated model.
func Default() Model {
	return Model{
		Base:  92.6,
		Chan7: 1.10,
		B16:   0.55,
		B32:   -1.40,
		K3:    1.00,
		P1:    0.20,
		P3:    -0.10,
		W48:   0.05,
		W64:   0.30,
		Res50: 0.50,
		Res1:  -1.00,

		NoiseStd:  0.62,
		TailBase:  0.015,
		TailB32:   0.060,
		TailHiRes: 0.040,
		TailLo:    6,
		TailHi:    14.5,
		Seed:      2464,
	}
}

// StemResolutionClass classifies the stem's downsampling into the three
// classes the search space can produce: 0 = quarter resolution (stride 2 +
// pooling stride 2), 1 = half resolution, 2 = full resolution.
func StemResolutionClass(cfg resnet.Config) int {
	down := 1
	if cfg.Stride == 2 {
		down *= 2
	}
	if cfg.PoolChoice == 1 && cfg.StridePool == 2 {
		down *= 2
	}
	switch {
	case down >= 4:
		return 0
	case down == 2:
		return 1
	default:
		return 2
	}
}

// Mean returns the deterministic (noise-free) accuracy prediction in
// percent.
func (m Model) Mean(cfg resnet.Config) float64 {
	acc := m.Base
	if cfg.Channels == 7 {
		acc += m.Chan7
	}
	switch cfg.Batch {
	case 16:
		acc += m.B16
	case 32:
		acc += m.B32
	}
	if cfg.KernelSize == 3 {
		acc += m.K3
	}
	switch cfg.Padding {
	case 1:
		acc += m.P1
	case 3:
		acc += m.P3
	}
	switch cfg.InitialOutputFeature {
	case 48:
		acc += m.W48
	case 64:
		acc += m.W64
	}
	switch StemResolutionClass(cfg) {
	case 1:
		acc += m.Res50
	case 2:
		acc += m.Res1
	}
	return acc
}

// trialSeed derives the seed of one trial's deterministic noise stream.
// The hash covers the raw configuration — including pool parameters that are
// irrelevant when PoolChoice is 0 — because NNI trains every raw trial
// independently: two trials that build identical networks still receive
// independent evaluation noise, exactly as in the paper's data (Table 4
// contains such near-duplicate rows with different accuracies).
func (m Model) trialSeed(cfg resnet.Config) uint64 {
	var buf [128]byte
	key := trialKey(buf[:0], cfg)
	h := m.Seed
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001B3
	}
	return h
}

// trialKey appends the raw configuration as fmt's
// "%dch%db%dk%ds%dp%dpc%dkp%dsp%df" would print it, the bytes trialSeed
// hashes, without fmt's cost on every trial.
func trialKey(b []byte, cfg resnet.Config) []byte {
	b = append(strconv.AppendInt(b, int64(cfg.Channels), 10), "ch"...)
	b = append(strconv.AppendInt(b, int64(cfg.Batch), 10), 'b')
	b = append(strconv.AppendInt(b, int64(cfg.KernelSize), 10), 'k')
	b = append(strconv.AppendInt(b, int64(cfg.Stride), 10), 's')
	b = append(strconv.AppendInt(b, int64(cfg.Padding), 10), 'p')
	b = append(strconv.AppendInt(b, int64(cfg.PoolChoice), 10), "pc"...)
	b = append(strconv.AppendInt(b, int64(cfg.KernelSizePool), 10), "kp"...)
	b = append(strconv.AppendInt(b, int64(cfg.StridePool), 10), "sp"...)
	return append(strconv.AppendInt(b, int64(cfg.InitialOutputFeature), 10), 'f')
}

// Accuracy returns the trial's simulated 5-fold mean accuracy in percent:
// the linear mean plus per-trial noise, with a deterministic low tail of
// convergence failures, clamped to a plausible band.
func (m Model) Accuracy(cfg resnet.Config) float64 {
	rng := tensor.NewRNG(m.trialSeed(cfg)) // stays on the stack: no allocation per trial
	acc := m.Mean(cfg)
	noise := rng.NormFloat64() * m.NoiseStd
	// Clip noise at 2.5σ: a 5-fold mean cannot stray arbitrarily.
	limit := 2.5 * m.NoiseStd
	if noise > limit {
		noise = limit
	} else if noise < -limit {
		noise = -limit
	}
	acc += noise

	tailP := m.TailBase
	if cfg.Batch == 32 {
		tailP += m.TailB32
	}
	if StemResolutionClass(cfg) == 2 {
		tailP += m.TailHiRes
	}
	if rng.Float64() < tailP {
		acc -= rng.Uniform(m.TailLo, m.TailHi)
	}
	if acc > 99.0 {
		acc = 99.0
	}
	if acc < 50.0 {
		acc = 50.0
	}
	return acc
}

// CalPoint pairs a configuration with a measured accuracy (from real
// training) for calibration.
type CalPoint struct {
	Config   resnet.Config
	Accuracy float64 // percent
}

// features maps a configuration to the design-matrix row
// [1, chan7, b16, b32, k3, p1, p3, w48, w64, res50, res1].
func features(cfg resnet.Config) []float64 {
	row := make([]float64, 11)
	row[0] = 1
	if cfg.Channels == 7 {
		row[1] = 1
	}
	switch cfg.Batch {
	case 16:
		row[2] = 1
	case 32:
		row[3] = 1
	}
	if cfg.KernelSize == 3 {
		row[4] = 1
	}
	switch cfg.Padding {
	case 1:
		row[5] = 1
	case 3:
		row[6] = 1
	}
	switch cfg.InitialOutputFeature {
	case 48:
		row[7] = 1
	case 64:
		row[8] = 1
	}
	switch StemResolutionClass(cfg) {
	case 1:
		row[9] = 1
	case 2:
		row[10] = 1
	}
	return row
}

// Calibrate fits the linear coefficients to measured points by ridge-
// regularized least squares (the small ridge keeps the system solvable when
// some axes are unobserved) and returns a model carrying the fitted means
// with the receiver's stochastic components.
func (m Model) Calibrate(points []CalPoint) Model {
	const dim = 11
	const ridge = 1e-6
	ata := make([][]float64, dim)
	for i := range ata {
		ata[i] = make([]float64, dim)
		ata[i][i] = ridge
	}
	atb := make([]float64, dim)
	for _, p := range points {
		row := features(p.Config)
		for i := 0; i < dim; i++ {
			if row[i] == 0 {
				continue
			}
			for j := 0; j < dim; j++ {
				ata[i][j] += row[i] * row[j]
			}
			atb[i] += row[i] * p.Accuracy
		}
	}
	coef := solveSPD(ata, atb)
	out := m
	out.Base = coef[0]
	out.Chan7 = coef[1]
	out.B16 = coef[2]
	out.B32 = coef[3]
	out.K3 = coef[4]
	out.P1 = coef[5]
	out.P3 = coef[6]
	out.W48 = coef[7]
	out.W64 = coef[8]
	out.Res50 = coef[9]
	out.Res1 = coef[10]
	return out
}

// RMSE measures the fit of the deterministic mean against measured points.
func (m Model) RMSE(points []CalPoint) float64 {
	if len(points) == 0 {
		return 0
	}
	ss := 0.0
	for _, p := range points {
		d := m.Mean(p.Config) - p.Accuracy
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(points)))
}

// solveSPD solves A·x = b for symmetric positive-definite A by Gaussian
// elimination with partial pivoting (dimension is tiny, stability suffices).
func solveSPD(a [][]float64, b []float64) []float64 {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		m[col], m[pivot] = m[pivot], m[col]
		pv := m[col][col]
		if math.Abs(pv) < 1e-12 {
			continue // unobserved axis; ridge keeps coefficient ≈ 0
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / pv
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		if math.Abs(m[i][i]) > 1e-12 {
			x[i] = m[i][n] / m[i][i]
		}
	}
	return x
}
