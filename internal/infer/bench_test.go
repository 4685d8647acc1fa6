package infer

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"drainnas/internal/onnxsize"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// benchConfig is a paper-space stem over a small backbone: big enough that
// the GEMM path engages, small enough that -benchtime=1x CI smoke runs are
// instant.
var benchConfig = resnet.Config{
	Channels: 5, Batch: 8, KernelSize: 7, Stride: 2, Padding: 3,
	PoolChoice: 1, KernelSizePool: 3, StridePool: 2,
	InitialOutputFeature: 16, NumClasses: 2,
}

func benchContainer(b *testing.B) []byte {
	b.Helper()
	rng := tensor.NewRNG(41)
	m, err := resnet.New(benchConfig, rng)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := onnxsize.Export(m, &buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func benchInput(batch int) *tensor.Tensor {
	return tensor.RandNormal(tensor.NewRNG(9), 1, batch, benchConfig.Channels, 32, 32)
}

// BenchmarkCompiledBatch1 is the compiled plan through a warm session (arena
// built, weights packed).
func BenchmarkCompiledBatch1(b *testing.B) {
	plan, err := LoadPlan(bytes.NewReader(benchContainer(b)))
	if err != nil {
		b.Fatal(err)
	}
	sess := plan.NewSession()
	x := benchInput(1)
	if _, err := sess.Forward(x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompiledBatch8(b *testing.B) {
	plan, err := LoadPlan(bytes.NewReader(benchContainer(b)))
	if err != nil {
		b.Fatal(err)
	}
	sess := plan.NewSession()
	x := benchInput(8)
	if _, err := sess.Forward(x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

// benchQuantPlan compiles and quantizes the benchmark model once per run.
func benchQuantPlan(b *testing.B) *Plan {
	b.Helper()
	plan, err := LoadPlan(bytes.NewReader(benchContainer(b)))
	if err != nil {
		b.Fatal(err)
	}
	qplan, err := plan.QuantizeSynthetic(32)
	if err != nil {
		b.Fatal(err)
	}
	return qplan
}

// BenchmarkQuantizedBatch1 is the int8 number against BenchmarkCompiledBatch1:
// the same plan post-training-quantized, run through a warm session (arena
// built, int8 panels packed).
func BenchmarkQuantizedBatch1(b *testing.B) {
	sess := benchQuantPlan(b).NewSession()
	x := benchInput(1)
	if _, err := sess.Forward(x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantizedBatch8(b *testing.B) {
	sess := benchQuantPlan(b).NewSession()
	x := benchInput(8)
	if _, err := sess.Forward(x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

// front32Config is the shape of the paper's Table 4 non-dominated models,
// the one the end-to-end benchmark deploys; every row above runs a width-16
// model on a 32×32 chip, these run it at the deployment size of 5×100×100.
var front32Config = resnet.Config{
	Channels: 5, Batch: 16, KernelSize: 3, Stride: 2, Padding: 1,
	PoolChoice: 1, KernelSizePool: 3, StridePool: 2,
	InitialOutputFeature: 32, NumClasses: 2,
}

// front32Plan compiles front32 with the weights of seed 7, quantized for
// 100² chips when int8 is set.
func front32Plan(b *testing.B, int8 bool) *Plan { return modelPlan(b, front32Config, int8) }

// modelContainer exports the model of cfg with the weights of seed 7.
func modelContainer(tb testing.TB, cfg resnet.Config) []byte {
	m, err := resnet.New(cfg, tensor.NewRNG(7))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := onnxsize.Export(m, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// modelPlan compiles the model of cfg with the weights of seed 7, quantized
// for 100² chips when int8 is set.
func modelPlan(b *testing.B, cfg resnet.Config, int8 bool) *Plan {
	plan, err := LoadPlan(bytes.NewReader(modelContainer(b, cfg)))
	if err != nil {
		b.Fatal(err)
	}
	if int8 {
		if plan, err = plan.QuantizeSynthetic(100); err != nil {
			b.Fatal(err)
		}
	}
	return plan
}

// benchFront32 times warm-session forwards of front32 at 5×100×100 and
// reports the per-sample time, the number a batch has to beat.
func benchFront32(b *testing.B, int8 bool, batch int) { benchModel(b, front32Config, int8, batch) }

// benchModel is benchFront32 for the model of cfg.
func benchModel(b *testing.B, cfg resnet.Config, int8 bool, batch int) {
	sess := modelPlan(b, cfg, int8).NewSession()
	x := tensor.RandNormal(tensor.NewRNG(9), 1, batch, cfg.Channels, 100, 100)
	if _, err := sess.Forward(x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N)/float64(batch), "ms_per_sample")
}

func BenchmarkFront32FP32Batch1(b *testing.B) { benchFront32(b, false, 1) }
func BenchmarkFront32FP32Batch4(b *testing.B) { benchFront32(b, false, 4) }
func BenchmarkFront32FP32Batch8(b *testing.B) { benchFront32(b, false, 8) }
func BenchmarkFront32Int8Batch1(b *testing.B) { benchFront32(b, true, 1) }
func BenchmarkFront32Int8Batch4(b *testing.B) { benchFront32(b, true, 4) }
func BenchmarkFront32Int8Batch8(b *testing.B) { benchFront32(b, true, 8) }

// The stock ResNet-18 (width 64, 7×7 stride-2 stem) at 5×100×100, the
// other model predict_closed serves at both precisions: its int8 forward
// runs the stem, the 128- to 512-channel convolutions and the 4×4 maps
// that front32 does not have.
func BenchmarkStockFP32Batch1(b *testing.B) { benchModel(b, resnet.StockResNet18(5, 16), false, 1) }
func BenchmarkStockInt8Batch1(b *testing.B) { benchModel(b, resnet.StockResNet18(5, 16), true, 1) }

// BenchmarkColdLoad times bringing up each model key predict_closed serves,
// from its container in memory (weights of seed 7) to the answer of its
// first 5×100×100 forward: LoadPlan (decode and Compile), for the @int8
// keys QuantizeSynthetic(32) as the serving loader calls it (calibration
// forwards, weight quantization), then the forward, whose first use packs
// every weight panel. ms/op is the whole bring-up; B/op (-benchmem) what it
// allocates.
func BenchmarkColdLoad(b *testing.B) {
	for _, key := range []struct {
		name string
		cfg  resnet.Config
		int8 bool
	}{
		{"front32", front32Config, false},
		{"front32@int8", front32Config, true},
		{"stock64", resnet.StockResNet18(5, 16), false},
		{"stock64@int8", resnet.StockResNet18(5, 16), true},
	} {
		b.Run(key.name, func(b *testing.B) {
			blob := modelContainer(b, key.cfg)
			x := tensor.RandNormal(tensor.NewRNG(9), 1, 1, key.cfg.Channels, 100, 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := LoadPlan(bytes.NewReader(blob))
				if err == nil && key.int8 {
					plan, err = plan.QuantizeSynthetic(32)
				}
				if err == nil {
					_, err = plan.Forward(x)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
		})
	}
}

// BenchmarkFront32Ops times an fp32 front32 forward at 5×100×100 op by op,
// through a warm session, and reports the milliseconds per forward each
// kind of op takes: the stem conv, the other stride-2 convs (stage entries
// and projections), the stride-1 convs, the convs that run a residual join
// in their epilogue — each of those two on the Winograd path (conv_wino,
// conv_wino_join) or the direct one (conv_s1, conv_join) — the max pool,
// the joins left to run on their own, and the head (global pool and
// classifier).
func BenchmarkFront32Ops(b *testing.B) {
	plan := front32Plan(b, false)
	for _, batch := range []int{1, 8} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			sess := plan.NewSession()
			x := tensor.RandNormal(tensor.NewRNG(9), 1, batch, front32Config.Channels, 100, 100)
			if _, err := sess.Forward(x); err != nil {
				b.Fatal(err)
			}
			ar := sess.arenas[arenaKey{n: batch, h: 100, w: 100}]
			kinds := make([]string, len(plan.ops))
			for idx, op := range plan.ops {
				in := ar.value(op.in, x)
				wino := op.kind == opConv && op.conv.Winograd(in.Dim(2), in.Dim(3))
				switch {
				case idx == 0:
					kinds[idx] = "stem"
				case op.kind == opConv && op.joinOut != 0 && wino:
					kinds[idx] = "conv_wino_join"
				case op.kind == opConv && op.joinOut != 0:
					kinds[idx] = "conv_join"
				case op.kind == opConv && op.stride == 2:
					kinds[idx] = "conv_s2"
				case wino:
					kinds[idx] = "conv_wino"
				case op.kind == opConv:
					kinds[idx] = "conv_s1"
				case op.kind == opMaxPool:
					kinds[idx] = "maxpool"
				case op.kind == opAdd:
					kinds[idx] = "join"
				default:
					kinds[idx] = "head"
				}
			}
			spent := map[string]time.Duration{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for idx := range plan.ops {
					t0 := time.Now()
					plan.step(ar, x, idx)
					spent[kinds[idx]] += time.Since(t0)
				}
			}
			for kind, d := range spent {
				b.ReportMetric(d.Seconds()*1e3/float64(b.N), kind+"_ms")
			}
		})
	}
}
