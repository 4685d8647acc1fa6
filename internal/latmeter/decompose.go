package latmeter

import (
	"slices"

	"drainnas/internal/resnet"
)

// Decompose lowers a ResNet configuration into the fused kernel graph an
// edge runtime would execute for batch-1 inference on an
// inputSize×inputSize image, without building weights.
func Decompose(cfg resnet.Config, inputSize int) (Graph, error) {
	layers, err := cfg.LayersAt(inputSize)
	if err != nil {
		return Graph{}, err
	}
	return Lower(layers), nil
}

// kernelTypes maps a layer kind to the kernel that executes it; a
// convolution without a fused activation is KConvBN.
var kernelTypes = [...]KernelType{
	resnet.LayerConv:          KConvBNReLU,
	resnet.LayerMaxPool:       KMaxPool,
	resnet.LayerAdd:           KAddReLU,
	resnet.LayerGlobalAvgPool: KGlobalAvgPool,
	resnet.LayerFC:            KFC,
}

// Lower turns a layer list from Config.LayersAt into the kernel graph: every
// fused layer is one schedulable kernel, in order.
func Lower(layers []resnet.Layer) Graph { return LowerTo(nil, layers) }

// LowerTo is Lower writing the kernels over buf's storage; with room for
// len(layers) kernels it allocates nothing.
func LowerTo(buf []Kernel, layers []resnet.Layer) Graph {
	ks := slices.Grow(buf[:0], len(layers))[:len(layers)]
	for i := range layers {
		l := &layers[i]
		n := l.Names()
		typ := kernelTypes[l.Kind]
		if l.Kind == resnet.LayerConv && n.Act == "" {
			typ = KConvBN
		}
		// Field by field: a Kernel literal is built on the stack and then
		// copied, and a sweep lowers tens of thousands of graphs.
		k := &ks[i]
		k.Type, k.Name = typ, n.Name
		k.InC, k.OutC, k.HW, k.OutHW, k.K, k.S = l.InC, l.OutC, l.In, l.Out, l.K, l.S
	}
	return Graph{Kernels: ks, InputSize: layers[0].In}
}
