package resnet

import (
	"fmt"
	"slices"

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
// node. A Layer holds no pointer — its names come from Names — so a layer
// list is plain data the garbage collector never scans.
type Layer struct {
	Kind LayerKind
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

// LayerNames names one fused layer and the parts it fuses — the nn modules
// New builds and the graph nodes the exporter writes.
type LayerNames struct {
	// Name is the fused layer's name. Node, BN and Act name the operation
	// itself, the BatchNorm folded into it and the ReLU applied to its
	// output ("" where there is none). Block is the residual block's name,
	// "" in the stem and the head.
	Name, Node, BN, Act, Block string
}

// blockNames spells one residual block's layers the way nn.BasicBlock names
// its modules. The topology never varies, so the table is fixed.
type blockNames struct {
	conv1, conv2, down, add LayerNames
}

var blockTable = func() (t [8]blockNames) {
	for b := range t {
		p := fmt.Sprintf("layer%d.%d", b/2+1, b%2)
		t[b] = blockNames{
			conv1: LayerNames{p + ".conv1", p + ".conv1", p + ".bn1", p + ".relu1", p},
			conv2: LayerNames{p + ".conv2", p + ".conv2", p + ".bn2", "", p},
			down:  LayerNames{p + ".down", p + ".down.conv", p + ".down.bn", "", p},
			add:   LayerNames{p + ".add", p + ".add", "", p + ".relu2", p},
		}
	}
	return t
}()

// stemNames names the stem's and the head's layers by kind.
var stemNames = [...]LayerNames{
	LayerConv:          {"conv1", "conv1", "bn1", "relu1", ""},
	LayerMaxPool:       {"maxpool", "maxpool", "", "", ""},
	LayerGlobalAvgPool: {"avgpool", "avgpool", "", "", ""},
	LayerFC:            {"fc", "fc", "", "", ""},
}

// Names returns the layer's names, read from the fixed tables by block and
// role: a block's layers are its first conv (Opens), its projection
// (Shortcut), its join (LayerAdd) and its second conv. The tables are
// shared; callers must not modify them.
func (l *Layer) Names() *LayerNames {
	if l.Block < 0 {
		return &stemNames[l.Kind]
	}
	n := &blockTable[l.Block]
	switch {
	case l.Opens:
		return &n.conv1
	case l.Shortcut:
		return &n.down
	case l.Kind == LayerAdd:
		return &n.add
	}
	return &n.conv2
}

// Layers lowers the configuration to its ordered layer list: the stem conv,
// the optional pool, four stages of two basic blocks (16 conv layers — with
// the stem conv and the classifier, ResNet-18's 18 weighted layers) and the
// head. One allocation, no formatting; the configuration should be valid.
func (c Config) Layers() []Layer { return c.AppendLayers(nil) }

// maxLayers is the longest layer list: stem conv and pool, eight blocks of
// four layers, pool and classifier.
const maxLayers = 2 + 8*4 + 2

// AppendLayers is Layers appending to dst; with room for maxLayers more
// layers it allocates nothing.
func (c Config) AppendLayers(dst []Layer) []Layer {
	w := c.StageWidths()
	ls := slices.Grow(dst, maxLayers)
	ls = add(ls, LayerConv, -1, c.Channels, w[0], c.KernelSize, c.Stride, c.Padding)
	if c.PoolChoice == 1 {
		// Pool padding follows the ResNet convention kernel/2 for k=3 and 0
		// for k=2, keeping window coverage sensible for both options.
		pad := 0
		if c.KernelSizePool >= 3 {
			pad = 1
		}
		ls = add(ls, LayerMaxPool, -1, w[0], w[0], c.KernelSizePool, c.StridePool, pad)
	}
	inC := w[0]
	for b := range blockTable {
		outC, stride := w[b/2], 1
		if b >= 2 && b%2 == 0 {
			stride = 2 // stages 2–4 halve the map in their first block
		}
		ls = add(ls, LayerConv, b, inC, outC, 3, stride, 1)
		ls[len(ls)-1].Opens = true
		ls = add(ls, LayerConv, b, outC, outC, 3, 1, 1)
		if stride != 1 || inC != outC {
			ls = add(ls, LayerConv, b, inC, outC, 1, stride, 0)
			ls[len(ls)-1].Shortcut = true
		}
		ls = add(ls, LayerAdd, b, outC, outC, 0, 0, 0)
		inC = outC
	}
	ls = add(ls, LayerGlobalAvgPool, -1, inC, inC, 0, 0, 0)
	return add(ls, LayerFC, -1, inC, c.NumClasses, 0, 0, 0)
}

// add appends one layer given its kind, block (-1 in the stem and head),
// channels in and out, and window: kernel side, stride, padding. It writes
// the fields in place: a Layer literal is built on the stack and then
// copied, and a sweep builds tens of thousands of layer lists.
func add(ls []Layer, kind LayerKind, block, inC, outC, k, s, p int) []Layer {
	ls = slices.Grow(ls, 1)[:len(ls)+1]
	l := &ls[len(ls)-1]
	l.Kind, l.Block, l.Opens, l.Shortcut = kind, block, false, false
	l.InC, l.OutC, l.K, l.S, l.P, l.In, l.Out = inC, outC, k, s, p, 0, 0
	return ls
}

// LayersAt validates the configuration and returns its layer list with an
// inputSize×inputSize image carried through it: every layer's In and Out
// are set, and the first layer that would leave no feature map is an error.
func (c Config) LayersAt(inputSize int) ([]Layer, error) { return c.AppendLayersAt(nil, inputSize) }

// AppendLayersAt is LayersAt appending to dst; on error it returns dst
// unchanged. With room for maxLayers more layers it allocates nothing.
func (c Config) AppendLayersAt(dst []Layer, inputSize int) ([]Layer, error) {
	if err := c.Validate(); err != nil {
		return dst, err
	}
	all := c.AppendLayers(dst)
	layers := all[len(dst):]
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
			return dst, fmt.Errorf("resnet: stem pool collapses feature map")
		default:
			return dst, fmt.Errorf("resnet: stem conv collapses %d px input", inputSize)
		}
		if !l.Shortcut {
			side = l.Out
		}
	}
	return all, nil
}
