// Package resnet builds the paper's configurable ResNet-18: a standard
// 18-layer residual classifier whose stem (initial convolution and optional
// max-pool) and initial feature width are exposed as the search-space axes
// of the NAS experiment (Figure 2 of the paper).
package resnet

import (
	"fmt"
	"strconv"
	"strings"

	"drainnas/internal/nn"
	"drainnas/internal/tensor"
)

// Config captures one point of the paper's search space plus the two input
// hyper-parameters (channels, batch size). Field names mirror the columns of
// Table 4.
type Config struct {
	// Channels is the number of input image channels (5 or 7 in the paper:
	// DEM+R+G+B+NIR, optionally +NDVI+NDWI).
	Channels int `json:"channels"`
	// Batch is the training/inference batch size (8, 16 or 32).
	Batch int `json:"batch"`

	// KernelSize, Stride, Padding parameterize the initial convolution.
	KernelSize int `json:"kernel_size"`
	Stride     int `json:"stride"`
	Padding    int `json:"padding"`

	// PoolChoice selects whether the stem max-pool is present (1) or not (0).
	PoolChoice int `json:"pool_choice"`
	// KernelSizePool and StridePool configure the stem max-pool; they are
	// ignored when PoolChoice == 0.
	KernelSizePool int `json:"kernel_size_pool"`
	StridePool     int `json:"stride_pool"`

	// InitialOutputFeature is the channel width of the first stage; each of
	// the four stages doubles it, and the classifier input is 4× this value
	// per the paper ("amplified by a factor of four" — width ×2³ with global
	// pooling; the paper's phrasing counts the stage multiplier from the
	// second stage).
	InitialOutputFeature int `json:"initial_output_feature"`

	// NumClasses is the classifier output width (2: crossing / no crossing).
	NumClasses int `json:"num_classes"`
}

// StockResNet18 returns the conventional ResNet-18 configuration used as the
// paper's baseline (7×7 stride-2 conv, padding 3, 3×3/2 max-pool, width 64).
func StockResNet18(channels, batch int) Config {
	return Config{
		Channels: channels, Batch: batch,
		KernelSize: 7, Stride: 2, Padding: 3,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2,
		InitialOutputFeature: 64,
		NumClasses:           2,
	}
}

// Validate checks that the configuration is structurally sound (positive
// dimensions, pool settings coherent). It does not check membership in the
// paper's search space — see the nas package for that.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("resnet: channels must be positive, got %d", c.Channels)
	case c.Batch <= 0:
		return fmt.Errorf("resnet: batch must be positive, got %d", c.Batch)
	case c.KernelSize <= 0:
		return fmt.Errorf("resnet: kernel_size must be positive, got %d", c.KernelSize)
	case c.Stride <= 0:
		return fmt.Errorf("resnet: stride must be positive, got %d", c.Stride)
	case c.Padding < 0:
		return fmt.Errorf("resnet: padding must be non-negative, got %d", c.Padding)
	case c.PoolChoice != 0 && c.PoolChoice != 1:
		return fmt.Errorf("resnet: pool_choice must be 0 or 1, got %d", c.PoolChoice)
	case c.PoolChoice == 1 && c.KernelSizePool <= 0:
		return fmt.Errorf("resnet: kernel_size_pool must be positive, got %d", c.KernelSizePool)
	case c.PoolChoice == 1 && c.StridePool <= 0:
		return fmt.Errorf("resnet: stride_pool must be positive, got %d", c.StridePool)
	case c.InitialOutputFeature <= 0:
		return fmt.Errorf("resnet: initial_output_feature must be positive, got %d", c.InitialOutputFeature)
	case c.NumClasses <= 0:
		return fmt.Errorf("resnet: num_classes must be positive, got %d", c.NumClasses)
	}
	return nil
}

// Canonical returns the configuration with search-irrelevant fields
// normalized: when PoolChoice is 0 the pool kernel/stride are zeroed, so two
// configs that build identical networks compare equal. This is the identity
// under which the paper's 1,728 raw trials collapse to unique outcomes.
func (c Config) Canonical() Config {
	if c.PoolChoice == 0 {
		c.KernelSizePool = 0
		c.StridePool = 0
	}
	return c
}

// Graph returns the identity of the inference network the configuration
// exports: Canonical with Batch cleared, since batch size shapes training
// only. Latency, memory and energy are functions of Graph, so two
// configurations with the same Graph measure alike; accuracy is not.
func (c Config) Graph() Config {
	c = c.Canonical()
	c.Batch = 0
	return c
}

// Key returns a stable string identity for the canonical configuration,
// suitable as a map key and as a seed component.
func (c Config) Key() string {
	var buf [128]byte
	return string(c.AppendKey(buf[:0]))
}

// AppendKey appends Key's text to dst.
func (c Config) AppendKey(dst []byte) []byte {
	c = c.Canonical()
	// fmt's "ch%d_b%d_k%d_s%d_p%d_pool%d_kp%d_sp%d_f%d", without fmt: the
	// sweep keys every trial, and formatting was a visible share of it.
	b := append(dst, "ch"...)
	b = strconv.AppendInt(b, int64(c.Channels), 10)
	b = strconv.AppendInt(append(b, "_b"...), int64(c.Batch), 10)
	b = strconv.AppendInt(append(b, "_k"...), int64(c.KernelSize), 10)
	b = strconv.AppendInt(append(b, "_s"...), int64(c.Stride), 10)
	b = strconv.AppendInt(append(b, "_p"...), int64(c.Padding), 10)
	b = strconv.AppendInt(append(b, "_pool"...), int64(c.PoolChoice), 10)
	b = strconv.AppendInt(append(b, "_kp"...), int64(c.KernelSizePool), 10)
	b = strconv.AppendInt(append(b, "_sp"...), int64(c.StridePool), 10)
	return strconv.AppendInt(append(b, "_f"...), int64(c.InitialOutputFeature), 10)
}

// StageWidths returns the channel widths of the four residual stages.
func (c Config) StageWidths() [4]int {
	f := c.InitialOutputFeature
	return [4]int{f, 2 * f, 4 * f, 8 * f}
}

// Model is the built network plus the metadata the rest of the pipeline
// (latency prediction, memory estimation) needs.
type Model struct {
	Config Config

	Stem   *nn.Sequential // initial conv (+BN+ReLU) and optional max-pool
	Stages []*nn.BasicBlock
	Head   *nn.Sequential // global average pool + fully connected

	net *nn.Sequential // the full chain, for forward/backward
}

// New builds the network for the given configuration with weights drawn
// from rng, layer by layer from cfg.Layers. Spatial validity for a specific
// input size is checked lazily at the first Forward (the tensor package
// panics on empty feature maps); use CheckSpatial to validate eagerly.
func New(cfg Config, rng *tensor.RNG) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{Config: cfg, Stem: nn.NewSequential("stem"), Head: nn.NewSequential("head")}
	for _, l := range cfg.Layers() {
		n := l.Names()
		switch {
		case l.Opens:
			// nn.BasicBlock builds the block's other layers — second conv,
			// projection, join — from the same three numbers.
			m.Stages = append(m.Stages, nn.NewBasicBlock(n.Block, rng, l.InC, l.OutC, l.S))
		case l.Block >= 0:
		case l.Kind == LayerConv:
			m.Stem.Layers = append(m.Stem.Layers,
				nn.NewConv2d(n.Node, rng, l.InC, l.OutC, l.K, l.S, l.P),
				nn.NewBatchNorm2d(n.BN, l.OutC), nn.NewReLU(n.Act))
		case l.Kind == LayerMaxPool:
			m.Stem.Add(nn.NewMaxPool2d(n.Node, l.K, l.S, l.P))
		case l.Kind == LayerGlobalAvgPool:
			m.Head.Add(nn.NewGlobalAvgPool(n.Node))
		case l.Kind == LayerFC:
			m.Head.Add(nn.NewLinear(n.Node, rng, l.InC, l.OutC))
		}
	}
	m.net = nn.NewSequential("resnet18", m.Stem)
	for _, b := range m.Stages {
		m.net.Add(b)
	}
	m.net.Add(m.Head)
	return m, nil
}

// Forward runs the network on a (N, Channels, H, W) batch, returning
// (N, NumClasses) logits.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.net.Forward(x, train)
}

// Backward propagates the loss gradient from the logits.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return m.net.Backward(grad)
}

// Params returns every learnable parameter.
func (m *Model) Params() []*nn.Param { return m.net.Params() }

// NumParams returns the learnable element count.
func (m *Model) NumParams() int { return nn.NumParams(m.Params()) }

// BatchNorms returns every BatchNorm of the network in layer order: the
// modules whose running statistics travel with the weights.
func (m *Model) BatchNorms() []*nn.BatchNorm2d {
	var bns []*nn.BatchNorm2d
	for _, l := range m.Stem.Layers {
		if bn, ok := l.(*nn.BatchNorm2d); ok {
			bns = append(bns, bn)
		}
	}
	for _, b := range m.Stages {
		bns = append(bns, b.BN1, b.BN2)
		if b.DownBN != nil {
			bns = append(bns, b.DownBN)
		}
	}
	return bns
}

// CheckSpatial verifies that an inputSize×inputSize image survives all the
// downsampling stages with at least a 1×1 feature map, returning the final
// spatial size.
func (c Config) CheckSpatial(inputSize int) (int, error) {
	ls, err := c.LayersAt(inputSize)
	if err != nil {
		return 0, err
	}
	return ls[len(ls)-2].In, nil // what the global pool reads
}

// Describe renders a human-readable architecture summary (the textual
// equivalent of the paper's Figure 1).
func (m *Model) Describe() string {
	var b strings.Builder
	c := m.Config
	fmt.Fprintf(&b, "ResNet-18 (drainage-crossing classifier)\n")
	fmt.Fprintf(&b, "  input: (N, %d, H, W)  batch=%d\n", c.Channels, c.Batch)
	for _, l := range c.Layers() {
		switch {
		case l.Opens && l.Block%2 == 0:
			fmt.Fprintf(&b, "  layer%d: 2 x BasicBlock(%d ch, first stride %d)\n", l.Block/2+1, l.OutC, l.S)
		case l.Block >= 0:
		case l.Kind == LayerConv:
			fmt.Fprintf(&b, "  %s: %dx%d s=%d p=%d -> %d ch, BN, ReLU\n", l.Names().Name, l.K, l.K, l.S, l.P, l.OutC)
			if c.PoolChoice == 0 {
				fmt.Fprintf(&b, "  maxpool: (none)\n")
			}
		case l.Kind == LayerMaxPool:
			fmt.Fprintf(&b, "  %s: %dx%d s=%d\n", l.Names().Name, l.K, l.K, l.S)
		case l.Kind == LayerGlobalAvgPool:
			fmt.Fprintf(&b, "  %s: global -> (N, %d)\n", l.Names().Name, l.OutC)
		case l.Kind == LayerFC:
			fmt.Fprintf(&b, "  %s: %d -> %d\n", l.Names().Name, l.InC, l.OutC)
		}
	}
	fmt.Fprintf(&b, "  parameters: %d\n", m.NumParams())
	return b.String()
}
