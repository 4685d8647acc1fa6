package infer

import (
	"bytes"
	"testing"

	"drainnas/internal/onnxsize"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// FuzzLoad feeds arbitrary byte streams to the plan loader. Malformed,
// truncated or hostile containers must surface as errors, never as panics,
// and any container LoadPlan accepts must yield a plan with a sane input
// contract.
func FuzzLoad(f *testing.F) {
	cfg := resnet.Config{
		Channels: 1, Batch: 1, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 2, NumClasses: 2,
	}
	m, err := resnet.New(cfg, tensor.NewRNG(5))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := onnxsize.Export(m, &buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("DNNX\x01"))
	f.Add([]byte("not a container"))
	f.Add(valid[:len(valid)/3])
	f.Add(valid[:len(valid)-1])
	mutated := append([]byte{}, valid...)
	mutated[len(mutated)/2] ^= 0xff
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := LoadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		if plan == nil {
			t.Fatal("nil plan without error")
		}
		if plan.InputChannels() <= 0 {
			t.Fatalf("accepted container with %d input channels", plan.InputChannels())
		}
	})
}
