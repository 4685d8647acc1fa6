package resnet

import (
	"fmt"
	"regexp"
	"strconv"

	"drainnas/internal/nn"
)

// graphNamePattern extracts the architecture axes from an exported graph
// name ("resnet18-ch5_b1_k3_s2_p1_pool0_kp0_sp0_f32").
var graphNamePattern = regexp.MustCompile(
	`^resnet18-ch(\d+)_b\d+_k(\d+)_s(\d+)_p(\d+)_pool(\d+)_kp(\d+)_sp(\d+)_f(\d+)$`)

// ConfigFromGraphName reconstructs the architectural configuration encoded
// in an exported container's graph name. Batch is not architectural and
// comes back as 1; NumClasses must be supplied by the fc initializer dims,
// so callers normally use LoadWeights which handles both.
func ConfigFromGraphName(name string, numClasses int) (Config, error) {
	m := graphNamePattern.FindStringSubmatch(name)
	if m == nil {
		return Config{}, fmt.Errorf("resnet: unrecognized graph name %q", name)
	}
	atoi := func(s string) int {
		v, _ := strconv.Atoi(s)
		return v
	}
	cfg := Config{
		Channels: atoi(m[1]), Batch: 1,
		KernelSize: atoi(m[2]), Stride: atoi(m[3]), Padding: atoi(m[4]),
		PoolChoice: atoi(m[5]), KernelSizePool: atoi(m[6]), StridePool: atoi(m[7]),
		InitialOutputFeature: atoi(m[8]),
		NumClasses:           numClasses,
	}
	if cfg.PoolChoice == 0 {
		// Canonical form zeroes the pool axes; restore valid placeholders.
		cfg.KernelSizePool, cfg.StridePool = 2, 2
	}
	return cfg, nil
}

// LoadWeights copies exported weights (from onnxsize.Decode) into a model
// built with the matching configuration: every parameter by name, plus the
// BatchNorm running statistics. Missing or mis-sized tensors are errors —
// a checkpoint either loads completely or not at all.
func LoadWeights(m *Model, weights map[string][]float32) error {
	for _, p := range m.Params() {
		vals, ok := weights[p.Name]
		if !ok {
			return fmt.Errorf("resnet: checkpoint missing %s", p.Name)
		}
		if len(vals) != p.Data.Numel() {
			return fmt.Errorf("resnet: %s has %d values, model wants %d", p.Name, len(vals), p.Data.Numel())
		}
		copy(p.Data.Data(), vals)
	}
	loadBN := func(bn *nn.BatchNorm2d) error {
		mean, ok := weights[bn.Name()+".running_mean"]
		if !ok {
			return fmt.Errorf("resnet: checkpoint missing %s.running_mean", bn.Name())
		}
		variance, ok := weights[bn.Name()+".running_var"]
		if !ok {
			return fmt.Errorf("resnet: checkpoint missing %s.running_var", bn.Name())
		}
		if len(mean) != bn.C || len(variance) != bn.C {
			return fmt.Errorf("resnet: %s running stats sized %d/%d, want %d", bn.Name(), len(mean), len(variance), bn.C)
		}
		for i := 0; i < bn.C; i++ {
			bn.RunningMean[i] = float64(mean[i])
			bn.RunningVar[i] = float64(variance[i])
		}
		return nil
	}
	for _, bn := range m.BatchNorms() {
		if err := loadBN(bn); err != nil {
			return err
		}
	}
	return nil
}
