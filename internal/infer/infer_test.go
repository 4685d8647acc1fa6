package infer

import (
	"bytes"
	"math"
	"testing"

	"drainnas/internal/nn"
	"drainnas/internal/onnxsize"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// exportModel builds, briefly trains (to move BN stats), and exports a
// model, returning both the model and the container bytes.
func exportModel(t *testing.T, cfg resnet.Config, seed uint64) (*resnet.Model, []byte) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	m, err := resnet.New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewSGD(m.Params(), 0.01, 0.9, 0)
	for i := 0; i < 3; i++ {
		x := tensor.RandNormal(rng, 1, 4, cfg.Channels, 32, 32)
		y := m.Forward(x, true)
		_, g := nn.CrossEntropy(y, []int{0, 1, 0, 1})
		nn.ZeroGrad(m.Params())
		m.Backward(g)
		opt.Step()
	}
	var buf bytes.Buffer
	if _, err := onnxsize.Export(m, &buf); err != nil {
		t.Fatal(err)
	}
	return m, buf.Bytes()
}

func TestRuntimeMatchesTrainingModel(t *testing.T) {
	for _, cfg := range []resnet.Config{
		{Channels: 5, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
			PoolChoice: 0, InitialOutputFeature: 8, NumClasses: 2},
		{Channels: 7, Batch: 4, KernelSize: 7, Stride: 2, Padding: 3,
			PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 8, NumClasses: 2},
		{Channels: 5, Batch: 4, KernelSize: 3, Stride: 1, Padding: 2,
			PoolChoice: 1, KernelSizePool: 2, StridePool: 2, InitialOutputFeature: 8, NumClasses: 2},
	} {
		m, container := exportModel(t, cfg, 11)
		rt, err := LoadPlan(bytes.NewReader(container))
		if err != nil {
			t.Fatalf("cfg %s: %v", cfg.Key(), err)
		}
		if rt.InputChannels() != cfg.Channels {
			t.Fatalf("cfg %s: runtime channels %d", cfg.Key(), rt.InputChannels())
		}
		rng := tensor.NewRNG(99)
		x := tensor.RandNormal(rng, 1, 3, cfg.Channels, 32, 32)
		want := m.Forward(x, false)
		got, err := rt.Forward(x)
		if err != nil {
			t.Fatalf("cfg %s: %v", cfg.Key(), err)
		}
		if !got.SameShape(want) {
			t.Fatalf("cfg %s: shape %v vs %v", cfg.Key(), got.Shape(), want.Shape())
		}
		for i := range got.Data() {
			diff := math.Abs(float64(got.Data()[i] - want.Data()[i]))
			if diff > 1e-3*(1+math.Abs(float64(want.Data()[i]))) {
				t.Fatalf("cfg %s: logit %d runtime %v vs model %v",
					cfg.Key(), i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

func TestRuntimeClassifyAgreesWithModel(t *testing.T) {
	cfg := resnet.Config{Channels: 5, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 8, NumClasses: 2}
	m, container := exportModel(t, cfg, 17)
	rt, err := LoadPlan(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	x := tensor.RandNormal(rng, 1, 8, 5, 32, 32)
	want := tensor.ArgMaxRows(m.Forward(x, false))
	got, err := rt.Classify(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: runtime class %d, model class %d", i, got[i], want[i])
		}
	}
}

func TestRuntimeRejectsBadInput(t *testing.T) {
	cfg := resnet.Config{Channels: 5, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 8, NumClasses: 2}
	_, container := exportModel(t, cfg, 3)
	rt, err := LoadPlan(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(1)
	// Wrong channel count.
	if _, err := rt.Forward(tensor.RandNormal(rng, 1, 1, 7, 32, 32)); err == nil {
		t.Fatal("wrong channels accepted")
	}
	// Wrong rank.
	if _, err := rt.Forward(tensor.RandNormal(rng, 1, 5, 32, 32)); err == nil {
		t.Fatal("rank-3 input accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadPlan(bytes.NewReader([]byte("not a container"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestGraphNameExposed(t *testing.T) {
	cfg := resnet.Config{Channels: 5, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 8, NumClasses: 2}
	_, container := exportModel(t, cfg, 4)
	rt, _ := LoadPlan(bytes.NewReader(container))
	if rt.Name() == "" {
		t.Fatal("empty graph name")
	}
}

func TestCheckpointRestoresTrainableModel(t *testing.T) {
	// Full checkpoint cycle: train → export → decode → rebuild config from
	// the graph name → load weights into a fresh model → identical
	// eval-mode behaviour. This is the resume-training path.
	cfg := resnet.Config{Channels: 5, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 8, NumClasses: 2}
	src, container := exportModel(t, cfg, 31)
	dec, err := onnxsize.Decode(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	numClasses := 0
	for _, init := range dec.Graph.Initializers {
		if init.Name == "fc.bias" {
			numClasses = init.Dims[0]
		}
	}
	restoredCfg, err := resnet.ConfigFromGraphName(dec.Graph.Name, numClasses)
	if err != nil {
		t.Fatal(err)
	}
	restoredCfg.Batch = cfg.Batch
	restored, err := resnet.New(restoredCfg, tensor.NewRNG(777))
	if err != nil {
		t.Fatal(err)
	}
	if err := resnet.LoadWeights(restored, dec.Weights); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(8)
	x := tensor.RandNormal(rng, 1, 2, 5, 32, 32)
	want := src.Forward(x, false)
	got := restored.Forward(x, false)
	for i := range got.Data() {
		diff := float64(got.Data()[i] - want.Data()[i])
		if diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("restored logit %d: %v vs %v", i, got.Data()[i], want.Data()[i])
		}
	}
}
