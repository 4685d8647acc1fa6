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
// contract. An accepted plan small enough to run at 1×C×16×16 is then
// quantized and both precisions run a forward: each step may fail, none
// may panic.
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
	f.Add(subnormalStemContainer(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := LoadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		if plan == nil {
			t.Fatal("nil plan without error")
		}
		c := plan.InputChannels()
		if c <= 0 {
			t.Fatalf("accepted container with %d input channels", c)
		}
		// Bound the work: hostile channel counts or widths must not turn
		// one input into gigabytes of calibration arenas.
		if c > 8 {
			return
		}
		shapes, err := plan.shapes(1, 16, 16)
		if err != nil {
			return
		}
		total := 0
		for _, sh := range shapes {
			n := numel(sh)
			if total += n; n < 0 || total > 1<<20 {
				return
			}
		}
		qplan, qerr := plan.QuantizeSynthetic(16)
		x := tensor.RandNormal(tensor.NewRNG(1), 1, 1, c, 16, 16)
		plan.Forward(x)
		if qerr == nil {
			qplan.Forward(x)
		}
	})
}
