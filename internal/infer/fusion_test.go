package infer

import (
	"bytes"
	"math"
	"testing"

	"drainnas/internal/nas"
	"drainnas/internal/onnxsize"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// runLiteral executes an fp32 plan's op list as compiled, every value in a
// tensor of its own: each residual block's conv, then its join's
// AddReLUInto. It is the oracle of the fused executor.
func runLiteral(t *testing.T, p *Plan, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	shapes, err := p.shapes(x.Dim(0), x.Dim(2), x.Dim(3))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]*tensor.Tensor, p.numVals)
	vals[0] = x
	for _, op := range p.ops {
		in, out := vals[op.in], tensor.New(shapes[op.out]...)
		vals[op.out] = out
		switch op.kind {
		case opConv:
			op.conv.ForwardInto(out, in, nil)
		case opRelu:
			tensor.ReLUInto(out, in)
		case opMaxPool:
			tensor.MaxPool2DInto(out, in, op.kernel, op.stride, op.pad)
		case opAdd:
			if op.relu {
				tensor.AddReLUInto(out, in, vals[op.in2])
			} else {
				tensor.AddInto(out, in, vals[op.in2])
			}
		case opGlobalAvgPool:
			tensor.GlobalAvgPool2DInto(out, in)
		case opFC:
			s, o := shapes[op.in], shapes[op.out]
			op.conv.ForwardInto(tensor.FromSlice(out.Data(), o[0], o[1], 1, 1), tensor.FromSlice(in.Data(), s[0], s[1], 1, 1), nil)
		}
	}
	return vals[p.outVal]
}

// fusionModel is one plan of the fused-join suite and the chip side it runs.
type fusionModel struct {
	name string
	plan *Plan
	side int
}

// fusionModels compiles front32 and the stock ResNet-18 for 5×100×100 chips
// and, at 32², the stems TestThreeWayParityRandomConfigs draws.
func fusionModels(t *testing.T) []fusionModel {
	t.Helper()
	var models []fusionModel
	for _, m := range []struct {
		name string
		cfg  resnet.Config
	}{{"front32", front32Config}, {"resnet18", resnet.StockResNet18(5, 8)}} {
		net, err := resnet.New(m.cfg, tensor.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := onnxsize.Export(net, &buf); err != nil {
			t.Fatal(err)
		}
		plan, err := LoadPlan(&buf)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, fusionModel{m.name, plan, 100})
	}
	space, rng := nas.PaperSpace(), tensor.NewRNG(1234)
	combos := []nas.InputCombo{{Channels: 5, Batch: 4}, {Channels: 7, Batch: 4}}
	for d := 0; d < 4; d++ {
		cfg := space.RandomConfig(combos[d%len(combos)], rng)
		cfg.InitialOutputFeature = 8
		_, container := exportModel(t, cfg, 100+uint64(d))
		plan, err := LoadPlan(bytes.NewReader(container))
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, fusionModel{cfg.Key(), plan, 32})
	}
	return models
}

// TestFusedJoinsMatchLiteralPlan holds Session.Forward and Plan.RunBatch,
// which run every residual join in its conv's epilogue, to the op list run
// literally, bit for bit, at batches 1, 3 and 8 — and checks that each of
// the eight joins of every model was fused.
func TestFusedJoinsMatchLiteralPlan(t *testing.T) {
	for _, m := range fusionModels(t) {
		t.Run(m.name, func(t *testing.T) {
			fused := 0
			for _, op := range m.plan.ops {
				if op.fused {
					fused++
				}
			}
			if fused != 8 {
				t.Fatalf("%d of 8 residual joins fused", fused)
			}
			sess := m.plan.NewSession()
			inC := m.plan.InputChannels()
			for _, batch := range []int{1, 3, 8} {
				x := tensor.RandNormal(tensor.NewRNG(uint64(batch)), 1, batch, inC, m.side, m.side)
				want := runLiteral(t, m.plan, x).Data()
				got, err := sess.Forward(x)
				if err != nil {
					t.Fatal(err)
				}
				chips := make([]*tensor.Tensor, batch)
				chip := x.Numel() / batch
				for s := range chips {
					chips[s] = tensor.FromSlice(x.Data()[s*chip:(s+1)*chip], inC, m.side, m.side)
				}
				preds, err := m.plan.RunBatch(chips)
				if err != nil {
					t.Fatal(err)
				}
				classes := len(want) / batch
				for i, w := range want {
					for path, g := range map[string]float32{"Session.Forward": got.Data()[i], "RunBatch": preds[i/classes].Logits[i%classes]} {
						if math.Float32bits(g) != math.Float32bits(w) {
							t.Fatalf("batch %d: %s logit %d = %v, literal op list %v", batch, path, i, g, w)
						}
					}
				}
			}
		})
	}
}

// TestFusedArenaNeverAliasesInputs checks the fused arenas' liveness: no op
// writes a buffer it reads, and a conv running its join writes the join's
// output into a buffer that is neither its input nor the join's other
// operand.
func TestFusedArenaNeverAliasesInputs(t *testing.T) {
	for _, m := range fusionModels(t) {
		for _, batch := range []int{1, 8} {
			ar, err := m.plan.buildArena(arenaKey{n: batch, h: m.side, w: m.side}, true)
			if err != nil {
				t.Fatal(err)
			}
			slab := func(v int) *float32 {
				if v == 0 || ar.vals[v] == nil {
					return nil
				}
				return &ar.vals[v].Data()[0]
			}
			for _, op := range m.plan.ops {
				out := op.out
				if op.joinOut != 0 {
					out = op.joinOut
				}
				if op.fused || slab(out) == nil {
					continue
				}
				reads := []int{op.in, op.in2}
				if op.joinOut != 0 {
					reads = append(reads, op.joinIn)
				}
				for _, v := range reads {
					if v >= 0 && slab(v) == slab(out) {
						t.Fatalf("%s batch %d: op %s writes value %d into the buffer of value %d it reads", m.name, batch, op.name, out, v)
					}
				}
			}
			if !ar.fused {
				t.Fatalf("%s: a recycling fp32 arena is not fused", m.name)
			}
		}
	}
}
