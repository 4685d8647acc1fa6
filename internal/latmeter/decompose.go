package latmeter

import "drainnas/internal/resnet"

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
func Lower(layers []resnet.Layer) Graph {
	ks := make([]Kernel, len(layers))
	for i, l := range layers {
		typ := kernelTypes[l.Kind]
		if l.Kind == resnet.LayerConv && l.Act == "" {
			typ = KConvBN
		}
		ks[i] = Kernel{Type: typ, Name: l.Name,
			InC: l.InC, OutC: l.OutC, HW: l.In, OutHW: l.Out, K: l.K, S: l.S}
	}
	return Graph{Kernels: ks, InputSize: layers[0].In}
}
