// Package dataset provides the in-memory image dataset abstraction used by
// the training loop: per-channel standardization, shuffled batching, and
// stratified k-fold splitting for the paper's 5-fold cross-validation.
package dataset

import (
	"fmt"
	"math"

	"drainnas/internal/tensor"
)

// Dataset is a labeled image collection stored as one (N, C, H, W) tensor.
type Dataset struct {
	X      *tensor.Tensor
	Labels []int
}

// New wraps images and labels, validating their agreement.
func New(x *tensor.Tensor, labels []int) *Dataset {
	if x.NDim() != 4 {
		panic(fmt.Sprintf("dataset: images must be (N,C,H,W), got %v", x.Shape()))
	}
	if x.Dim(0) != len(labels) {
		panic(fmt.Sprintf("dataset: %d images but %d labels", x.Dim(0), len(labels)))
	}
	return &Dataset{X: x, Labels: labels}
}

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.Labels) }

// Channels returns the image channel count.
func (d *Dataset) Channels() int { return d.X.Dim(1) }

// Subset returns a new dataset containing the given sample indices (copied).
func (d *Dataset) Subset(indices []int) *Dataset {
	c, h, w := d.X.Dim(1), d.X.Dim(2), d.X.Dim(3)
	stride := c * h * w
	x := tensor.New(len(indices), c, h, w)
	labels := make([]int, len(indices))
	for i, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			panic(fmt.Sprintf("dataset: subset index %d out of range [0,%d)", idx, d.Len()))
		}
		copy(x.Data()[i*stride:(i+1)*stride], d.X.Data()[idx*stride:(idx+1)*stride])
		labels[i] = d.Labels[idx]
	}
	return &Dataset{X: x, Labels: labels}
}

// ChannelStats holds per-channel standardization parameters.
type ChannelStats struct {
	Mean []float64
	Std  []float64
}

// ComputeStats measures per-channel mean and standard deviation.
func (d *Dataset) ComputeStats() ChannelStats {
	n, c, h, w := d.X.Dim(0), d.X.Dim(1), d.X.Dim(2), d.X.Dim(3)
	plane := h * w
	stats := ChannelStats{Mean: make([]float64, c), Std: make([]float64, c)}
	for ch := 0; ch < c; ch++ {
		sum, sumSq := 0.0, 0.0
		for s := 0; s < n; s++ {
			src := d.X.Data()[(s*c+ch)*plane : (s*c+ch+1)*plane]
			for _, v := range src {
				f := float64(v)
				sum += f
				sumSq += f * f
			}
		}
		count := float64(n * plane)
		mean := sum / count
		variance := sumSq/count - mean*mean
		if variance < 0 {
			variance = 0
		}
		stats.Mean[ch] = mean
		stats.Std[ch] = math.Sqrt(variance)
	}
	return stats
}

// Normalize standardizes every channel in place with the given stats
// (x ← (x-μ)/σ); channels with σ≈0 are only mean-shifted. Computing stats on
// the training fold and applying them to the validation fold avoids leakage.
func (d *Dataset) Normalize(stats ChannelStats) {
	n, c, h, w := d.X.Dim(0), d.X.Dim(1), d.X.Dim(2), d.X.Dim(3)
	if len(stats.Mean) != c {
		panic(fmt.Sprintf("dataset: stats for %d channels, data has %d", len(stats.Mean), c))
	}
	plane := h * w
	for ch := 0; ch < c; ch++ {
		mean := float32(stats.Mean[ch])
		inv := float32(1)
		if stats.Std[ch] > 1e-8 {
			inv = float32(1.0 / stats.Std[ch])
		}
		for s := 0; s < n; s++ {
			src := d.X.Data()[(s*c+ch)*plane : (s*c+ch+1)*plane]
			for i := range src {
				src[i] = (src[i] - mean) * inv
			}
		}
	}
}

// Batch copies the samples at indices into a fresh (len, C, H, W) tensor
// plus its label slice.
func (d *Dataset) Batch(indices []int) (*tensor.Tensor, []int) {
	sub := d.Subset(indices)
	return sub.X, sub.Labels
}

// Batches partitions [0, Len) into batches of the given size, shuffled by
// rng when non-nil. The final short batch is kept (dropping it would bias
// small datasets).
func (d *Dataset) Batches(batchSize int, rng *tensor.RNG) [][]int {
	if batchSize <= 0 {
		panic(fmt.Sprintf("dataset: invalid batch size %d", batchSize))
	}
	n := d.Len()
	order := make([]int, n)
	if rng != nil {
		copy(order, rng.Perm(n))
	} else {
		for i := range order {
			order[i] = i
		}
	}
	var batches [][]int
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		batches = append(batches, order[lo:hi])
	}
	return batches
}
