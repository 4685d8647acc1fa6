package tensor

import (
	"fmt"
	"testing"
)

// planShapes are the distinct convolution shapes of a 5×100×100 chip through
// the deployed front32 model and the PaperSpace stems beside it: the
// stride-2 3×3 stem and the 3×3 block convolution of each stage on the map
// it sees, each stage's entry (a 3×3 conv at stride 2 and its 1×1 stride-2
// projection), and the other stems PaperSpace searches — kernel 3 and 7 at
// stride 1 and 2, padded to keep the map — at width 32.
var planShapes = []struct {
	name                string
	c, oc, side         int
	kernel, stride, pad int
	outSide             int
}{
	{"stem", 5, 32, 100, 3, 2, 1, 50},
	{"32@25", 32, 32, 25, 3, 1, 1, 25},
	{"64@13", 64, 64, 13, 3, 1, 1, 13},
	{"128@7", 128, 128, 7, 3, 1, 1, 7},
	{"256@4", 256, 256, 4, 3, 1, 1, 4},
	{"entry64@13", 32, 64, 25, 3, 2, 1, 13},
	{"entry128@7", 64, 128, 13, 3, 2, 1, 7},
	{"entry256@4", 128, 256, 7, 3, 2, 1, 4},
	{"proj64@13", 32, 64, 25, 1, 2, 0, 13},
	{"proj128@7", 64, 128, 13, 1, 2, 0, 7},
	{"proj256@4", 128, 256, 7, 1, 2, 0, 4},
	{"stem-k3s1", 5, 32, 100, 3, 1, 1, 100},
	{"stem-k7s1", 5, 32, 100, 7, 1, 3, 100},
	{"stem-k7s2", 5, 32, 100, 7, 2, 3, 50},
}

// BenchmarkConvPlanShapes runs each shape through a warm PackedConv
// (weights packed, bias and ReLU fused, output reused) — the call a compiled
// plan makes per layer — alone and in a batch of eight, and then the same
// through a warm QuantizedConv on the input quantized (the /int8 rows, in
// GOP/s on the same direct count of multiply-adds).
func BenchmarkConvPlanShapes(b *testing.B) {
	for _, s := range planShapes {
		for _, batch := range []int{1, 8} {
			ops := 2 * float64(batch*s.outSide*s.outSide) * float64(s.oc) * float64(s.c*s.kernel*s.kernel)
			b.Run(fmt.Sprintf("%s/batch%d", s.name, batch), func(b *testing.B) {
				r := NewRNG(7)
				x := RandNormal(r, 1, batch, s.c, s.side, s.side)
				pc := NewPackedConv(RandNormal(r, 0.05, s.oc, s.c, s.kernel, s.kernel), RandNormal(r, 0.1, s.oc).Data(), s.stride, s.pad, true)
				out := New(batch, s.oc, s.outSide, s.outSide)
				pc.ForwardInto(out, x, nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pc.ForwardInto(out, x, nil)
				}
				b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
			})
			b.Run(fmt.Sprintf("%s/batch%d/int8", s.name, batch), func(b *testing.B) {
				r := NewRNG(7)
				xf := RandNormal(r, 1, batch, s.c, s.side, s.side).Data()
				inScale := ActScale(MaxAbs(xf))
				x := make([]int8, len(xf))
				QuantizeInto(x, xf, inScale)
				qc := NewQuantizedConv(RandNormal(r, 0.05, s.oc, s.c, s.kernel, s.kernel), RandNormal(r, 0.1, s.oc).Data(), s.stride, s.pad, true, inScale, 0.05)
				out := make([]int8, batch*s.oc*s.outSide*s.outSide)
				qc.ForwardInto(out, x, batch, s.side, s.side)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					qc.ForwardInto(out, x, batch, s.side, s.side)
				}
				b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gops")
			})
		}
	}
}
