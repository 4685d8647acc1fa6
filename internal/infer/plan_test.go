package infer

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"drainnas/internal/nas"
	"drainnas/internal/onnxsize"
	"drainnas/internal/parallel"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// TestThreeWayParityRandomConfigs draws stem configurations from the paper's
// search space and checks three execution paths against each other at 1e-4:
// the training stack's eval-mode forward (golden), the compiled plan run as
// one stacked batch through a session, and the same plan fed chip by chip
// through RunBatch. Any BN-folding or fusion mistake in Compile shows up here
// as a split from the training forward.
func TestThreeWayParityRandomConfigs(t *testing.T) {
	space := nas.PaperSpace()
	rng := tensor.NewRNG(1234)
	combos := []nas.InputCombo{{Channels: 5, Batch: 4}, {Channels: 7, Batch: 4}}
	const draws = 4
	for d := 0; d < draws; d++ {
		cfg := space.RandomConfig(combos[d%len(combos)], rng)
		// The stem axes (kernel/stride/padding/pool) are what Compile has to
		// get right; shrink the backbone width so each draw stays fast.
		cfg.InitialOutputFeature = 8
		t.Run(cfg.Key(), func(t *testing.T) {
			m, container := exportModel(t, cfg, 100+uint64(d))
			dec, err := onnxsize.Decode(bytes.NewReader(container))
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Compile(dec)
			if err != nil {
				t.Fatal(err)
			}
			sess := plan.NewSession()

			const n = 2
			x := tensor.RandNormal(tensor.NewRNG(uint64(7+d)), 1, n, cfg.Channels, 32, 32)
			want := m.Forward(x, false)
			compiled, err := sess.Forward(x)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			if !compiled.SameShape(want) {
				t.Fatalf("shapes: session %v training %v", compiled.Shape(), want.Shape())
			}
			chips := make([]*tensor.Tensor, n)
			chip := x.Numel() / n
			for s := range chips {
				chips[s] = tensor.FromSlice(x.Data()[s*chip:(s+1)*chip], cfg.Channels, 32, 32)
			}
			preds, err := plan.RunBatch(chips)
			if err != nil {
				t.Fatalf("RunBatch: %v", err)
			}
			classes := want.Dim(1)
			for i, wv := range want.Data() {
				batched := preds[i/classes].Logits[i%classes]
				closeTo(t, "session vs training", compiled.Data()[i], wv, 1e-4)
				closeTo(t, "RunBatch vs training", batched, wv, 1e-4)
				closeTo(t, "session vs RunBatch", compiled.Data()[i], batched, 1e-4)
			}
		})
	}
}

// TestPlanFusesOps pins the lowering arithmetic: every BatchNormalization
// folds into its conv and every ReLU (they all trail a Conv or an Add in the
// exporter's graphs) fuses into an epilogue, so the op count is exactly the
// node count minus those two populations.
func TestPlanFusesOps(t *testing.T) {
	cfg := resnet.Config{
		Channels: 5, Batch: 4, KernelSize: 7, Stride: 2, Padding: 3,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2,
		InitialOutputFeature: 8, NumClasses: 2,
	}
	_, container := exportModel(t, cfg, 3)
	dec, err := onnxsize.Decode(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(dec)
	if err != nil {
		t.Fatal(err)
	}
	bn, relu := 0, 0
	for _, n := range dec.Graph.Nodes {
		switch n.OpType {
		case "BatchNormalization":
			bn++
		case "Relu":
			relu++
		}
	}
	if bn == 0 || relu == 0 {
		t.Fatalf("degenerate graph: %d BN, %d ReLU nodes", bn, relu)
	}
	want := len(dec.Graph.Nodes) - bn - relu
	if plan.OpCount() != want {
		t.Fatalf("plan has %d ops; %d nodes - %d BN - %d ReLU = %d",
			plan.OpCount(), len(dec.Graph.Nodes), bn, relu, want)
	}
}

// planPadDecoded hand-builds a minimal decoded container whose MaxPool
// carries an explicit pad attribute: Conv(1x1) -> BN -> ReLU -> MaxPool(k3,
// s2, pad) -> GAP -> Gemm. The resnet exporter always pads k>=3 pools by 1,
// so a pad-0 k3 pool only exists off the exporter path — exactly the case
// the old runtime got wrong by guessing pad from the kernel size.
func planPadDecoded(pad int, withPadAttr bool) *onnxsize.Decoded {
	poolAttrs := map[string]int{"kernel": 3, "stride": 2}
	if withPadAttr {
		poolAttrs["pad"] = pad
	}
	g := onnxsize.GraphSpec{
		Name: "padprobe",
		Nodes: []onnxsize.NodeSpec{
			{OpType: "Conv", Name: "conv1", Attrs: map[string]int{"kernel": 1, "stride": 1, "pad": 0}},
			{OpType: "BatchNormalization", Name: "bn1", Attrs: map[string]int{}},
			{OpType: "Relu", Name: "relu1", Attrs: map[string]int{}},
			{OpType: "MaxPool", Name: "pool", Attrs: poolAttrs},
			{OpType: "GlobalAveragePool", Name: "gap", Attrs: map[string]int{}},
			{OpType: "Gemm", Name: "fc", Attrs: map[string]int{}},
		},
		Initializers: []onnxsize.InitializerSpec{
			{Name: "conv1.weight", Dims: []int{2, 1, 1, 1}},
			{Name: "bn1.gamma", Dims: []int{2}},
			{Name: "bn1.beta", Dims: []int{2}},
			{Name: "bn1.running_mean", Dims: []int{2}},
			{Name: "bn1.running_var", Dims: []int{2}},
			{Name: "fc.weight", Dims: []int{2, 2}},
			{Name: "fc.bias", Dims: []int{2}},
		},
	}
	return &onnxsize.Decoded{
		Graph: g,
		Weights: map[string][]float32{
			"conv1.weight":     {1.5, -0.5},
			"bn1.gamma":        {1, 1},
			"bn1.beta":         {0, 0.25},
			"bn1.running_mean": {0.1, -0.1},
			"bn1.running_var":  {1, 1},
			"fc.weight":        {1, 0, 0.5, -1},
			"fc.bias":          {0.125, -0.25},
		},
	}
}

// TestPoolPadZeroHonored is the regression test for the MaxPool padding bug:
// the runtime used to guess pad=1 whenever kernel >= 3, silently reshaping
// (and mis-valuing) any container whose pool really has pad 0. The compiled
// result must match the same pipeline built from raw tensor ops with pad 0.
func TestPoolPadZeroHonored(t *testing.T) {
	dec := planPadDecoded(0, true)
	plan, err := Compile(dec)
	if err != nil {
		t.Fatal(err)
	}
	// 5x5 input: pad 0 pools to 2x2, the old pad-1 guess would give 3x3 and
	// pull zero-padding into the maxima.
	x := tensor.RandNormal(tensor.NewRNG(5), 1, 1, 1, 5, 5)
	got, err := plan.Forward(x)
	if err != nil {
		t.Fatal(err)
	}

	// Reference from raw tensor ops, fold-free: conv -> BN by hand -> relu
	// -> pool(pad 0) -> gap -> fc.
	conv := tensor.Conv2D(x, tensor.FromSlice(dec.Weights["conv1.weight"], 2, 1, 1, 1), nil, 1, 0)
	g, b := dec.Weights["bn1.gamma"], dec.Weights["bn1.beta"]
	mean, variance := dec.Weights["bn1.running_mean"], dec.Weights["bn1.running_var"]
	bn := tensor.New(conv.Shape()...)
	plane := conv.Dim(2) * conv.Dim(3)
	for ch := 0; ch < 2; ch++ {
		inv := 1 / float32(math.Sqrt(float64(variance[ch])+1e-5))
		for i := 0; i < plane; i++ {
			bn.Data()[ch*plane+i] = (conv.Data()[ch*plane+i]-mean[ch])*inv*g[ch] + b[ch]
		}
	}
	tensor.ReLUInto(bn, bn)
	pooled := tensor.New(1, 2, tensor.ConvOut(bn.Dim(2), 3, 2, 0), tensor.ConvOut(bn.Dim(3), 3, 2, 0))
	tensor.MaxPool2DInto(pooled, bn, 3, 2, 0)
	gap := tensor.New(1, 2)
	tensor.GlobalAvgPool2DInto(gap, pooled)
	fcW := dec.Weights["fc.weight"] // (out 2, in 2)
	want := tensor.New(1, 2)
	for j := 0; j < 2; j++ {
		s := dec.Weights["fc.bias"][j]
		for i := 0; i < 2; i++ {
			s += gap.Data()[i] * fcW[j*2+i]
		}
		want.Data()[j] = s
	}

	if !got.SameShape(want) {
		t.Fatalf("compiled shape %v, reference %v", got.Shape(), want.Shape())
	}
	for i := range want.Data() {
		closeTo(t, fmt.Sprintf("logit %d", i), got.Data()[i], want.Data()[i], 1e-5)
	}
}

// TestCompileRejectsMissingPoolPad: a container whose MaxPool lacks the pad
// attribute predates the explicit-padding exporter; guessing is what caused
// the original bug, so Compile must refuse outright.
func TestCompileRejectsMissingPoolPad(t *testing.T) {
	dec := planPadDecoded(0, false)
	if _, err := Compile(dec); err == nil || !strings.Contains(err.Error(), "pad") {
		t.Fatalf("Compile error = %v, want missing-pad rejection", err)
	}
}

// TestPlanSharedAcrossSessionsRace hammers one shared Plan from many
// goroutines — per-goroutine sessions, the pooled Plan.Forward wrapper and
// RunBatch all at once — and checks every result against the serial
// reference. Run with -race this is the concurrency contract of the API:
// Plan immutable and shareable, Session single-goroutine.
func TestPlanSharedAcrossSessionsRace(t *testing.T) {
	cfg := resnet.Config{
		Channels: 3, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2,
		InitialOutputFeature: 4, NumClasses: 2,
	}
	_, container := exportModel(t, cfg, 17)
	plan, err := LoadPlan(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	// Two spatial sizes so concurrent sessions juggle multiple arenas.
	xa := tensor.RandNormal(tensor.NewRNG(1), 1, 1, 3, 16, 16)
	xb := tensor.RandNormal(tensor.NewRNG(2), 1, 1, 3, 24, 24)
	refA, err := plan.Forward(xa)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := plan.Forward(xb)
	if err != nil {
		t.Fatal(err)
	}

	const workers, iters = 8, 20
	var wg sync.WaitGroup
	errc := make(chan error, 3*workers)
	check := func(kind string, got []float32, want *tensor.Tensor) error {
		for i, wv := range want.Data() {
			if d := math.Abs(float64(got[i] - wv)); d > 1e-6 {
				return fmt.Errorf("%s: logit %d drifted by %g under concurrency", kind, i, d)
			}
		}
		return nil
	}
	for w := 0; w < workers; w++ {
		// Dedicated sessions, alternating shapes.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := plan.NewSession()
			for i := 0; i < iters; i++ {
				x, ref := xa, refA
				if (w+i)%2 == 1 {
					x, ref = xb, refB
				}
				out, err := sess.Forward(x)
				if err != nil {
					errc <- err
					return
				}
				if err := check("session", out.Data(), ref); err != nil {
					errc <- err
					return
				}
			}
		}(w)
		// Pooled wrapper path.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				out, err := plan.Forward(xa)
				if err != nil {
					errc <- err
					return
				}
				if err := check("plan.Forward", out.Data(), refA); err != nil {
					errc <- err
					return
				}
			}
		}()
		// Batched path with mixed sizes.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/2; i++ {
				preds, err := plan.RunBatch([]*tensor.Tensor{xa, xb, xa})
				if err != nil {
					errc <- err
					return
				}
				for bi, ref := range []*tensor.Tensor{refA, refB, refA} {
					if err := check("RunBatch", preds[bi].Logits, ref); err != nil {
						errc <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestSessionSteadyStateZeroAlloc is the arena acceptance check: once a
// session has seen a shape, further forwards of that shape allocate nothing,
// alone or in a batch of eight, and a RunBatch of that shape allocates only
// what it hands out — the result slice and one logits row per request; the
// slab it stacks the chips into is the session's.
// Workers are pinned to 1 so goroutine spawns in the conv driver don't count
// against the arena (the claim under test is about tensor buffers).
func TestSessionSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; alloc counts are not meaningful")
	}
	prev := parallel.DefaultWorkers
	parallel.DefaultWorkers = 1
	defer func() { parallel.DefaultWorkers = prev }()

	cfg := resnet.Config{
		Channels: 3, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2,
		InitialOutputFeature: 4, NumClasses: 2,
	}
	_, container := exportModel(t, cfg, 29)
	plan, err := LoadPlan(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	sess := plan.NewSession()
	for _, batch := range []int{1, 8} {
		x := tensor.RandNormal(tensor.NewRNG(3), 1, batch, 3, 16, 16)
		if _, err := sess.Forward(x); err != nil { // builds the arena
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := sess.Forward(x); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state Forward at batch %d allocates %.1f objects/op, want 0", batch, allocs)
		}
	}

	chips := make([]*tensor.Tensor, 8)
	for i := range chips {
		chips[i] = tensor.RandNormal(tensor.NewRNG(uint64(i)), 1, 3, 16, 16)
	}
	if _, err := plan.RunBatch(chips); err != nil { // builds the pooled session's slab and arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := plan.RunBatch(chips); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(len(chips) + 1); allocs > want {
		t.Fatalf("steady-state RunBatch of %d chips allocates %.1f objects/op, want at most %.0f (results + logits)", len(chips), allocs, want)
	}
}

// TestSessionArenaReusedAcrossShapes checks the arena map: two shapes mean
// two arenas, re-seeing a shape reuses its arena (the hit/miss counters are
// observable via metrics but the behavioral check here is value identity of
// the returned logits buffer, which is arena-owned).
func TestSessionArenaReusedAcrossShapes(t *testing.T) {
	cfg := resnet.Config{
		Channels: 3, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 4, NumClasses: 2,
	}
	_, container := exportModel(t, cfg, 31)
	plan, err := LoadPlan(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	sess := plan.NewSession()
	xa := tensor.RandNormal(tensor.NewRNG(1), 1, 1, 3, 16, 16)
	xb := tensor.RandNormal(tensor.NewRNG(2), 1, 1, 3, 20, 20)

	outA1, err := sess.Forward(xa)
	if err != nil {
		t.Fatal(err)
	}
	dataA1 := &outA1.Data()[0]
	if _, err := sess.Forward(xb); err != nil {
		t.Fatal(err)
	}
	outA2, err := sess.Forward(xa)
	if err != nil {
		t.Fatal(err)
	}
	if &outA2.Data()[0] != dataA1 {
		t.Fatal("re-seen shape did not reuse its arena buffer")
	}
}

// TestShapesMatchForward holds the plan's one shape inference to what a
// forward pass really produces. Each fp32 value is recomputed from the
// arena's own inputs by the tensor package's operator, into a tensor sized
// from the op's own geometry (Conv2D sizes its output itself, here over a
// zero filter of the op's out channels, kernel, stride and pad: only the
// shape is compared); an int8 plan must hold exactly that many s8 elements
// per value, and a float head of that shape. Logits from the
// keep-everything arena this reads must equal the ordinary recycling
// session's bit for bit.
func TestShapesMatchForward(t *testing.T) {
	cfg := resnet.Config{Channels: 5, Batch: 4, KernelSize: 5, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 8, NumClasses: 3}
	_, container := exportModel(t, cfg, 41)
	plan, err := LoadPlan(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	qplan, err := plan.QuantizeSynthetic(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Plan{plan, qplan} {
		for _, tc := range []struct{ n, h, w int }{{1, 32, 32}, {8, 32, 32}, {1, 40, 24}, {8, 24, 40}} {
			shapes, err := p.shapes(tc.n, tc.h, tc.w)
			if err != nil {
				t.Fatalf("%s %+v: %v", p.Precision(), tc, err)
			}
			x := tensor.RandNormal(tensor.NewRNG(3), 1, tc.n, cfg.Channels, tc.h, tc.w)
			sess := p.NewSession()
			sess.keepValues = true
			logits, err := sess.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(logits.Shape(), want.Shape()) || !reflect.DeepEqual(logits.Data(), want.Data()) {
				t.Errorf("%s %+v: keep-everything arena logits %v %v, recycling arena %v %v",
					p.Precision(), tc, logits.Shape(), logits.Data(), want.Shape(), want.Data())
			}
			ar := sess.arenas[arenaKey{tc.n, tc.h, tc.w}]
			value := func(v int) *tensor.Tensor {
				if v == 0 {
					return x
				}
				return ar.vals[v]
			}
			for idx, op := range p.ops {
				inferred := shapes[op.out]
				if p.Precision() == PrecisionInt8 && op.kind != opGlobalAvgPool && op.kind != opFC {
					if got := len(ar.qvals[op.out]); got != numel(inferred) {
						t.Errorf("int8 %+v op %s: %d s8 elements, inferred shape %v", tc, op.name, got, inferred)
					}
					continue
				}
				if got := ar.vals[op.out].Shape(); !reflect.DeepEqual(got, inferred) {
					t.Errorf("%s %+v op %s: arena tensor %v, inferred %v", p.Precision(), tc, op.name, got, inferred)
				}
				if p.Precision() == PrecisionInt8 {
					continue // the float head's inputs are s8; its shapes are checked above
				}
				var ref *tensor.Tensor
				switch in := value(op.in); op.kind {
				case opConv:
					ref = tensor.Conv2D(in, tensor.New(op.oc, in.Dim(1), op.kernel, op.kernel), nil, op.stride, op.pad)
				case opRelu:
					ref = tensor.New(in.Shape()...)
					tensor.ReLUInto(ref, in)
				case opMaxPool:
					ref = tensor.New(in.Dim(0), in.Dim(1), tensor.ConvOut(in.Dim(2), op.kernel, op.stride, op.pad), tensor.ConvOut(in.Dim(3), op.kernel, op.stride, op.pad))
					tensor.MaxPool2DInto(ref, in, op.kernel, op.stride, op.pad)
				case opAdd:
					ref = tensor.New(in.Shape()...)
					tensor.AddInto(ref, in, value(op.in2))
				case opGlobalAvgPool:
					ref = tensor.New(in.Dim(0), in.Dim(1))
					tensor.GlobalAvgPool2DInto(ref, in)
				case opFC:
					ref = tensor.Conv2D(ar.fcIn[idx], tensor.New(op.oc, in.Dim(1), 1, 1), nil, 1, 0).Reshape(tc.n, -1)
				}
				if !reflect.DeepEqual(ref.Shape(), inferred) {
					t.Errorf("fp32 %+v op %s: operator produces %v, inferred %v", tc, op.name, ref.Shape(), inferred)
				}
			}
		}
	}
}
