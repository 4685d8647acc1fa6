package serve

import (
	"context"
	"testing"
	"time"

	"drainnas/internal/infer"
	"drainnas/internal/onnxsize"
	"drainnas/internal/tensor"
)

// loneLoader serves a hand-built container that costs next to nothing to
// run — a 1×1 conv from the 3 input channels to 2, the global pool and a
// 2×2 classifier — so a Submit over it times the batcher, not a model.
func loneLoader() func(string) (*infer.Plan, error) {
	dec := &onnxsize.Decoded{
		Graph: onnxsize.GraphSpec{
			Name: "lone",
			Nodes: []onnxsize.NodeSpec{
				{OpType: "Conv", Name: "conv1", Attrs: map[string]int{"kernel": 1, "stride": 1, "pad": 0}},
				{OpType: "GlobalAveragePool", Name: "gap", Attrs: map[string]int{}},
				{OpType: "Gemm", Name: "fc", Attrs: map[string]int{}},
			},
			Initializers: []onnxsize.InitializerSpec{
				{Name: "conv1.weight", Dims: []int{2, 3, 1, 1}},
				{Name: "fc.weight", Dims: []int{2, 2}},
				{Name: "fc.bias", Dims: []int{2}},
			},
		},
		Weights: map[string][]float32{
			"conv1.weight": {1.5, -0.5, 0.25, 0.5, 1, -1},
			"fc.weight":    {1, 0, 0.5, -1},
			"fc.bias":      {0.125, -0.25},
		},
	}
	return func(string) (*infer.Plan, error) { return infer.Compile(dec) }
}

// BenchmarkSubmitLone is the batcher's rung of the request-path ladder: one
// Submit at a time into a Server at its default Options (batch 8, 2 ms
// MaxDelay), over loneLoader's plan and a 3×4×4 chip, so each request
// arrives alone at an idle server. ns/op is Submit end to end; queued_ms
// is the mean Response.Queued, the time from admission to the batch's
// start. Outside the timed region: building the server and one warm-up
// request that loads the plan.
func BenchmarkSubmitLone(b *testing.B) {
	s := NewServer(loneLoader(), Options{})
	defer s.Close()
	in := tensor.RandNormal(tensor.NewRNG(1), 1, 3, 4, 4)
	if _, err := s.Submit(context.Background(), "m", in); err != nil {
		b.Fatal(err)
	}
	var queued time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Submit(context.Background(), "m", in)
		if err != nil {
			b.Fatal(err)
		}
		queued += resp.Queued
	}
	b.StopTimer()
	b.ReportMetric(float64(queued)/float64(time.Millisecond)/float64(b.N), "queued_ms")
}
