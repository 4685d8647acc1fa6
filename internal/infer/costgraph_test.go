package infer

import (
	"bytes"
	"testing"

	"drainnas/internal/latmeter"
	"drainnas/internal/nas"
	"drainnas/internal/onnxsize"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// TestCostGraphMatchesDecompose pins the parity that makes plan-derived
// latency seeding trustworthy: walking a compiled container's fused ops
// must reproduce latmeter.Decompose's kernel graph for the same
// architecture — kernel for kernel, geometry for geometry. (Names differ
// only where the exporter is more specific, e.g. "layer2.0.down.conv" vs
// decomposition's "layer2.0.down", so they are compared normalized.)
func TestCostGraphMatchesDecompose(t *testing.T) {
	cfgs := []resnet.Config{
		{Channels: 3, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
			PoolChoice: 0, InitialOutputFeature: 4, NumClasses: 2},
		{Channels: 7, Batch: 4, KernelSize: 7, Stride: 2, Padding: 3,
			PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 8, NumClasses: 2},
		{Channels: 5, Batch: 4, KernelSize: 5, Stride: 1, Padding: 2,
			PoolChoice: 1, KernelSizePool: 2, StridePool: 2, InitialOutputFeature: 16, NumClasses: 4},
	}
	// Every stem kernel, stride, pool off / 2x2 / 3x3 and two widths at 5
	// and 7 channels: one plan per distinct stem and shortcut shape.
	cfgs = append(cfgs, nas.UniqueConfigs(nas.Space{
		KernelSizes: []int{3, 5, 7}, Strides: []int{1, 2}, Paddings: []int{1},
		PoolChoices: []int{0, 1}, KernelSizePools: []int{2, 3}, StridePools: []int{2},
		InitialFeatures: []int{4, 8}, NumClasses: 2,
	}.EnumerateAll([]nas.InputCombo{{Channels: 5, Batch: 8}, {Channels: 7, Batch: 8}}))...)
	for i, cfg := range cfgs {
		m, err := resnet.New(cfg, tensor.NewRNG(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		var container bytes.Buffer
		if _, err := onnxsize.Export(m, &container); err != nil {
			t.Fatal(err)
		}
		p, err := LoadPlan(&container)
		if err != nil {
			t.Fatalf("%s: LoadPlan: %v", cfg.Key(), err)
		}
		q, err := p.Quantize([]*tensor.Tensor{tensor.RandNormal(tensor.NewRNG(7), 1, 2, cfg.Channels, 32, 32)})
		if err != nil {
			t.Fatalf("%s: Quantize: %v", cfg.Key(), err)
		}
		for _, size := range []int{64, latmeter.DefaultInputSize} {
			want, err := latmeter.Decompose(cfg, size)
			if err != nil {
				t.Fatalf("%s size %d: Decompose: %v", cfg.Key(), size, err)
			}
			// The int8 plan runs the same kernels at the int8 cost scale.
			for _, side := range []struct {
				plan *Plan
				want latmeter.Graph
			}{{p, want}, {q, want.Int8()}} {
				got, err := side.plan.CostGraph(size)
				if err != nil {
					t.Fatalf("%s size %d %s: CostGraph: %v", cfg.Key(), size, side.plan.Precision(), err)
				}
				if got.InputSize != size || got.CostScale != side.want.CostScale {
					t.Fatalf("%s %s: InputSize %d CostScale %v, want %d and %v", cfg.Key(), side.plan.Precision(),
						got.InputSize, got.CostScale, size, side.want.CostScale)
				}
				if len(got.Kernels) != len(want.Kernels) {
					t.Fatalf("%s size %d: %d kernels, want %d\ngot:  %v\nwant: %v",
						cfg.Key(), size, len(got.Kernels), len(want.Kernels), got.Kernels, want.Kernels)
				}
				for j := range want.Kernels {
					g, w := got.Kernels[j], want.Kernels[j]
					g.Name, w.Name = "", ""
					if g != w {
						t.Errorf("%s size %d kernel %d (%s): %+v, want %+v",
							cfg.Key(), size, j, want.Kernels[j].Name, g, w)
					}
				}
				// Identical geometry must give identical predicted latency — the
				// quantity the router actually seeds SJF with.
				for _, dev := range latmeter.Devices() {
					if g, w := dev.LatencyMS(got), dev.LatencyMS(side.want); g != w {
						t.Errorf("%s size %d device %s: plan-predicted %.4fms, config-predicted %.4fms",
							cfg.Key(), size, dev.Name, g, w)
					}
				}
			}
		}
	}
}

// TestCostGraphRejectsBadSize pins input validation and the collapsed-
// spatial guard.
func TestCostGraphRejectsBadSize(t *testing.T) {
	// An unpadded 2-wide max pool collapses a 1-pixel feature map to nothing.
	cfg := resnet.Config{Channels: 5, Batch: 4, KernelSize: 5, Stride: 1, Padding: 2,
		PoolChoice: 1, KernelSizePool: 2, StridePool: 2, InitialOutputFeature: 16, NumClasses: 4}
	_, container := exportModel(t, cfg, 9)
	p, err := LoadPlan(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CostGraph(0); err == nil {
		t.Fatal("CostGraph(0) succeeded")
	}
	if _, err := p.CostGraph(-3); err == nil {
		t.Fatal("CostGraph(-3) succeeded")
	}
	if _, err := p.CostGraph(1); err == nil {
		t.Fatal("CostGraph(1) succeeded on a collapsing geometry")
	}
}
