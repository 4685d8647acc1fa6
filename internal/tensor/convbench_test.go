package tensor

import (
	"fmt"
	"testing"
)

// planShapes are the distinct convolution shapes of the deployed front32
// model at a 5×100×100 chip: the stride-2 stem and the 3×3 block
// convolution of each stage, on the map size that stage sees.
var planShapes = []struct {
	name            string
	c, oc, side     int
	stride, outSide int
}{
	{"stem", 5, 32, 100, 2, 50},
	{"32@25", 32, 32, 25, 1, 25},
	{"64@13", 64, 64, 13, 1, 13},
	{"128@7", 128, 128, 7, 1, 7},
	{"256@4", 256, 256, 4, 1, 4},
}

// BenchmarkConvPlanShapes runs each front32 shape through a warm PackedConv
// (weights packed, bias and ReLU fused, output reused) — the call a compiled
// plan makes per layer — alone and in a batch of eight.
func BenchmarkConvPlanShapes(b *testing.B) {
	for _, s := range planShapes {
		for _, batch := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/batch%d", s.name, batch), func(b *testing.B) {
				r := NewRNG(7)
				x := RandNormal(r, 1, batch, s.c, s.side, s.side)
				pc := NewPackedConv(RandNormal(r, 0.05, s.oc, s.c, 3, 3), RandNormal(r, 0.1, s.oc).Data(), s.stride, 1, true)
				out := New(batch, s.oc, s.outSide, s.outSide)
				pc.ForwardInto(out, x)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pc.ForwardInto(out, x)
				}
				flops := 2 * float64(batch*s.outSide*s.outSide) * float64(s.oc) * float64(s.c*9)
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
			})
		}
	}
}
