package infer

import (
	"bytes"
	"testing"

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

// BenchmarkInterpretedBatch1 is the "before" number: the per-call graph
// interpreter, which re-resolves topology, runs BN as its own pass and
// allocates a tensor per op.
func BenchmarkInterpretedBatch1(b *testing.B) {
	dec, err := onnxsize.Decode(bytes.NewReader(benchContainer(b)))
	if err != nil {
		b.Fatal(err)
	}
	rt := newInterpreter(dec)
	x := benchInput(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledBatch1 is the "after" number: the compiled plan through a
// warm session (arena built, weights packed).
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

func BenchmarkInterpretedBatch8(b *testing.B) {
	dec, err := onnxsize.Decode(bytes.NewReader(benchContainer(b)))
	if err != nil {
		b.Fatal(err)
	}
	rt := newInterpreter(dec)
	x := benchInput(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.forward(x); err != nil {
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

// benchFront32 times warm-session forwards of front32 at 5×100×100 and
// reports the per-sample time, the number a batch has to beat.
func benchFront32(b *testing.B, int8 bool, batch int) {
	m, err := resnet.New(front32Config, tensor.NewRNG(7))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := onnxsize.Export(m, &buf); err != nil {
		b.Fatal(err)
	}
	plan, err := LoadPlan(&buf)
	if err != nil {
		b.Fatal(err)
	}
	if int8 {
		if plan, err = plan.QuantizeSynthetic(100); err != nil {
			b.Fatal(err)
		}
	}
	sess := plan.NewSession()
	x := tensor.RandNormal(tensor.NewRNG(9), 1, batch, front32Config.Channels, 100, 100)
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
