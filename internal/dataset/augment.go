package dataset

import "drainnas/internal/tensor"

// AugmentOptions selects the geometric/noise augmentations applied to
// training batches. Drainage-crossing chips are rotation- and
// flip-invariant (a crossing is a crossing from any compass direction), so
// the dihedral transforms are label-preserving.
type AugmentOptions struct {
	FlipH    bool
	FlipV    bool
	Rot90    bool    // random multiple of 90° (square chips only)
	NoiseStd float64 // additive Gaussian sensor noise; 0 disables
}

// enabled reports whether any augmentation is active.
func (a AugmentOptions) enabled() bool {
	return a.FlipH || a.FlipV || a.Rot90 || a.NoiseStd > 0
}

// Apply augments a batch in place (the batch tensor is a private copy made
// by Dataset.Batch, so mutating it is safe). Each augmentation fires with
// probability 1/2 per batch, driven by rng.
func (a AugmentOptions) Apply(x *tensor.Tensor, rng *tensor.RNG) *tensor.Tensor {
	if !a.enabled() {
		return x
	}
	if a.FlipH && rng.Intn(2) == 1 {
		x = tensor.FlipH(x)
	}
	if a.FlipV && rng.Intn(2) == 1 {
		x = tensor.FlipV(x)
	}
	if a.Rot90 && x.Dim(2) == x.Dim(3) {
		if k := rng.Intn(4); k != 0 {
			x = tensor.Rot90(x, k)
		}
	}
	if a.NoiseStd > 0 {
		tensor.AddNoiseInPlace(x, rng, a.NoiseStd)
	}
	return x
}
