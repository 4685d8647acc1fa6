package resnet

import (
	"fmt"

	"drainnas/internal/tensor"
)

// LayerKind enumerates the fused operations the network is made of — the
// granularity an inference runtime schedules and the latency model prices.
type LayerKind uint8

// The layer kinds Config.Layers produces.
const (
	LayerConv    LayerKind = iota // convolution + BatchNorm, + ReLU when Act is set
	LayerMaxPool                  // the stem's optional max-pool
	LayerAdd                      // residual join + ReLU
	LayerGlobalAvgPool
	LayerFC
)

// Layer is one fused layer of the configured network. The list
// Config.Layers returns is the single description of the architecture:
// New builds its modules from it, CheckSpatial and Describe read it,
// latmeter prices it kernel for kernel and onnxsize exports it node for
// node.
type Layer struct {
	Kind LayerKind
	// Name is the fused layer's name. Node, BN and Act name the parts it
	// fuses — the nn modules New builds and the graph nodes the exporter
	// writes: the operation itself, the BatchNorm folded into it and the
	// ReLU applied to its output ("" where there is none).
	Name, Node, BN, Act string
	// Block is the residual block the layer belongs to (0–7), -1 in the
	// stem and the head. Opens marks a block's first layer, whose input is
	// also the block's shortcut; Shortcut marks the 1×1 projection, which
	// reads that input instead of the preceding layer's output.
	Block           int
	Opens, Shortcut bool

	InC, OutC int
	K, S, P   int // kernel side, stride, padding; zero outside conv and pool

	// In and Out are the spatial sides of the layer's input and output
	// feature maps; LayersAt sets them, Layers leaves them zero.
	In, Out int
}

// blockNames spells one residual block's layers the way nn.BasicBlock names
// its modules. The topology never varies, so the table is fixed.
type blockNames struct {
	block, conv1, bn1, relu1, conv2, bn2, down, downConv, downBN, add, relu2 string
}

var blockTable = func() (t [8]blockNames) {
	for b := range t {
		p := fmt.Sprintf("layer%d.%d", b/2+1, b%2)
		t[b] = blockNames{p, p + ".conv1", p + ".bn1", p + ".relu1", p + ".conv2", p + ".bn2",
			p + ".down", p + ".down.conv", p + ".down.bn", p + ".add", p + ".relu2"}
	}
	return t
}()

// Layers lowers the configuration to its ordered layer list: the stem conv,
// the optional pool, four stages of two basic blocks (16 conv layers — with
// the stem conv and the classifier, ResNet-18's 18 weighted layers) and the
// head. One allocation, no formatting; the configuration should be valid.
func (c Config) Layers() []Layer {
	w := c.StageWidths()
	ls := make([]Layer, 0, 2+8*4+2)
	ls = append(ls, Layer{Kind: LayerConv, Name: "conv1", Node: "conv1", BN: "bn1", Act: "relu1", Block: -1,
		InC: c.Channels, OutC: w[0], K: c.KernelSize, S: c.Stride, P: c.Padding})
	if c.PoolChoice == 1 {
		// Pool padding follows the ResNet convention kernel/2 for k=3 and 0
		// for k=2, keeping window coverage sensible for both options.
		pad := 0
		if c.KernelSizePool >= 3 {
			pad = 1
		}
		ls = append(ls, Layer{Kind: LayerMaxPool, Name: "maxpool", Node: "maxpool", Block: -1,
			InC: w[0], OutC: w[0], K: c.KernelSizePool, S: c.StridePool, P: pad})
	}
	inC := w[0]
	for b := range blockTable {
		n, outC, stride := &blockTable[b], w[b/2], 1
		if b >= 2 && b%2 == 0 {
			stride = 2 // stages 2–4 halve the map in their first block
		}
		ls = append(ls,
			Layer{Kind: LayerConv, Name: n.conv1, Node: n.conv1, BN: n.bn1, Act: n.relu1, Block: b, Opens: true,
				InC: inC, OutC: outC, K: 3, S: stride, P: 1},
			Layer{Kind: LayerConv, Name: n.conv2, Node: n.conv2, BN: n.bn2, Block: b,
				InC: outC, OutC: outC, K: 3, S: 1, P: 1})
		if stride != 1 || inC != outC {
			ls = append(ls, Layer{Kind: LayerConv, Name: n.down, Node: n.downConv, BN: n.downBN, Block: b, Shortcut: true,
				InC: inC, OutC: outC, K: 1, S: stride})
		}
		ls = append(ls, Layer{Kind: LayerAdd, Name: n.add, Node: n.add, Act: n.relu2, Block: b, InC: outC, OutC: outC})
		inC = outC
	}
	return append(ls,
		Layer{Kind: LayerGlobalAvgPool, Name: "avgpool", Node: "avgpool", Block: -1, InC: inC, OutC: inC},
		Layer{Kind: LayerFC, Name: "fc", Node: "fc", Block: -1, InC: inC, OutC: c.NumClasses})
}

// LayersAt validates the configuration and returns its layer list with an
// inputSize×inputSize image carried through it: every layer's In and Out
// are set, and the first layer that would leave no feature map is an error.
func (c Config) LayersAt(inputSize int) ([]Layer, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	layers := c.Layers()
	side, blockIn := inputSize, 0
	for i := range layers {
		l := &layers[i]
		if l.Opens {
			blockIn = side
		}
		l.In = side
		if l.Shortcut {
			l.In = blockIn
		}
		switch l.Kind {
		case LayerConv, LayerMaxPool:
			l.Out = tensor.ConvOut(l.In, l.K, l.S, l.P)
		case LayerAdd:
			l.Out = l.In
		default: // the head works on pooled (N, C) features
			l.Out = 1
		}
		// Only the stem can collapse: the blocks' 3×3 pad-1 and 1×1
		// convolutions turn any side ≥ 1 into a side ≥ 1.
		switch {
		case l.Out >= 1:
		case l.Kind == LayerMaxPool:
			return nil, fmt.Errorf("resnet: stem pool collapses feature map")
		default:
			return nil, fmt.Errorf("resnet: stem conv collapses %d px input", inputSize)
		}
		if !l.Shortcut {
			side = l.Out
		}
	}
	return layers, nil
}
