package infer

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"testing"

	"drainnas/internal/geodata"
	"drainnas/internal/latmeter"
	"drainnas/internal/nas"
	"drainnas/internal/nn"
	"drainnas/internal/onnxsize"
	"drainnas/internal/parallel"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// Documented acceptance bounds of the PTQ pass, checked on the task the
// models exist for: per randomized PaperSpace config, train briefly on a
// miniature drainage corpus, quantize with in-distribution calibration, and
// require the int8 plan's worst logit error to stay under
// quantParityMaxRelLogitErr of the float plan's own logit magnitude (trained
// models produce logits of wildly different scales, so the bound is
// relative) while the two plans agree on the predicted class for at least
// quantParityMinAgreement of the corpus.
const (
	quantParityMaxRelLogitErr = 0.06
	quantParityMinAgreement   = 0.99
)

// quantParityModel builds and briefly trains a model on a miniature geodata
// corpus so the logits carry real class margins (agreement on margin-free
// random logits would measure noise, not the quantizer), returning the
// exported container with the corpus tensors.
func quantParityModel(t *testing.T, cfg resnet.Config, seed uint64) ([]byte, *tensor.Tensor) {
	t.Helper()
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: 32, Scale: 96, Seed: seed})
	x, labels := corpus.Tensors(cfg.Channels)
	n := x.Dim(0)

	rng := tensor.NewRNG(seed)
	m, err := resnet.New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewSGD(m.Params(), 0.05, 0.9, 0)
	const batch = 16
	plane := cfg.Channels * 32 * 32
	for epoch := 0; epoch < 10; epoch++ {
		for lo := 0; lo+batch <= n; lo += batch {
			xb := tensor.FromSlice(x.Data()[lo*plane:(lo+batch)*plane], batch, cfg.Channels, 32, 32)
			y := m.Forward(xb, true)
			_, g := nn.CrossEntropy(y, labels[lo:lo+batch])
			nn.ZeroGrad(m.Params())
			m.Backward(g)
			opt.Step()
		}
	}
	var buf bytes.Buffer
	if _, err := onnxsize.Export(m, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), x
}

// TestQuantParityRandomConfigs is the float-oracle parity harness: draw stem
// configurations from the paper's search space, quantize each compiled plan
// with calibration drawn from the corpus, and hold the int8 plan to the
// documented bounds on fixed seeds.
func TestQuantParityRandomConfigs(t *testing.T) {
	space := nas.PaperSpace()
	rng := tensor.NewRNG(4242)
	combos := []nas.InputCombo{{Channels: 5, Batch: 4}, {Channels: 7, Batch: 4}}
	const draws = 4
	for d := 0; d < draws; d++ {
		cfg := space.RandomConfig(combos[d%len(combos)], rng)
		cfg.InitialOutputFeature = 8
		t.Run(cfg.Key(), func(t *testing.T) {
			container, x := quantParityModel(t, cfg, 300+uint64(d))
			plan, err := LoadPlan(bytes.NewReader(container))
			if err != nil {
				t.Fatal(err)
			}
			// Calibrate on the full corpus — calibration must see the
			// activation ranges the eval set exercises, or out-of-range
			// values clip and the comparison measures range estimation,
			// not the quantizer.
			qplan, err := plan.Quantize([]*tensor.Tensor{x})
			if err != nil {
				t.Fatal(err)
			}
			if qplan.Precision() != PrecisionInt8 {
				t.Fatalf("quantized plan precision %q", qplan.Precision())
			}

			want, err := plan.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := qplan.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			if !got.SameShape(want) {
				t.Fatalf("logit shape %v vs %v", got.Shape(), want.Shape())
			}

			worst, mag := 0.0, 0.0
			for i, wv := range want.Data() {
				if d := math.Abs(float64(got.Data()[i] - wv)); d > worst {
					worst = d
				}
				if a := math.Abs(float64(wv)); a > mag {
					mag = a
				}
			}
			if worst > quantParityMaxRelLogitErr*mag {
				t.Errorf("max abs logit error %.4f exceeds %.0f%% of logit magnitude %.2f",
					worst, 100*quantParityMaxRelLogitErr, mag)
			}

			wc := tensor.ArgMaxRows(want)
			gc := tensor.ArgMaxRows(got)
			agree := 0
			for i := range wc {
				if wc[i] == gc[i] {
					agree++
				}
			}
			if frac := float64(agree) / float64(len(wc)); frac < quantParityMinAgreement {
				t.Errorf("top-1 agreement %.4f below bound %.2f (%d/%d)", frac, quantParityMinAgreement, agree, len(wc))
			}
		})
	}
}

// TestQuantizeSyntheticCalibration covers the no-data path the serving tier
// uses: geodata-derived calibration for the paper's channel counts.
func TestQuantizeSyntheticCalibration(t *testing.T) {
	cfg := resnet.Config{
		Channels: 5, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2,
		InitialOutputFeature: 8, NumClasses: 2,
	}
	_, container := exportModel(t, cfg, 77)
	plan, err := LoadPlan(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	qplan, err := plan.QuantizeSynthetic(32)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(tensor.NewRNG(5), 1, 2, cfg.Channels, 32, 32)
	logits, err := qplan.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Dim(0) != 2 || logits.Dim(1) != cfg.NumClasses {
		t.Fatalf("logit shape %v", logits.Shape())
	}
	for _, v := range logits.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("non-finite logit %v", v)
		}
	}
	if _, err := qplan.Quantize(nil); err == nil {
		t.Fatal("re-quantizing an int8 plan must fail")
	}
}

// subnormalStemContainer exports a fresh 5-channel width-8 model whose stem
// conv weights are all zero but one, set to the smallest subnormal float32:
// every activation the stem feeds observes a max-abs whose quotient by
// QActMax underflows, the calibration case ActScale must not turn into a
// zero scale.
func subnormalStemContainer(tb testing.TB) []byte {
	tb.Helper()
	cfg := resnet.Config{
		Channels: 5, Batch: 1, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 8, NumClasses: 2,
	}
	m, err := resnet.New(cfg, tensor.NewRNG(3))
	if err != nil {
		tb.Fatal(err)
	}
	w := m.Params()[0].Data.Data()
	clear(w)
	w[0] = math.SmallestNonzeroFloat32
	var buf bytes.Buffer
	if _, err := onnxsize.Export(m, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestQuantizeSubnormalActivationsForward: a plan whose calibrated ranges
// underflow still quantizes, and its int8 forward returns finite logits
// instead of panicking on a zero activation scale.
func TestQuantizeSubnormalActivationsForward(t *testing.T) {
	plan, err := LoadPlan(bytes.NewReader(subnormalStemContainer(t)))
	if err != nil {
		t.Fatal(err)
	}
	qplan, err := plan.QuantizeSynthetic(32)
	if err != nil {
		t.Fatal(err)
	}
	logits, err := qplan.Forward(tensor.RandNormal(tensor.NewRNG(9), 1, 2, 5, 32, 32))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range logits.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("non-finite logit %v", v)
		}
	}
}

// TestQuantizedSteadyStateZeroAlloc holds the int8 path to the same arena
// acceptance bar as the float path: once a session has seen a shape, further
// forwards of that shape allocate nothing.
func TestQuantizedSteadyStateZeroAlloc(t *testing.T) {
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
	qplan, err := plan.QuantizeSynthetic(16)
	if err != nil {
		t.Fatal(err)
	}
	sess := qplan.NewSession()
	for _, batch := range []int{1, 8} {
		x := tensor.RandNormal(tensor.NewRNG(3), 1, batch, 3, 16, 16)
		if _, err := sess.Forward(x); err != nil { // builds the arena, packs panels
			t.Fatal(err)
		}
		if _, err := sess.Forward(x); err != nil { // warms the scratch pools
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := sess.Forward(x); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state quantized Forward at batch %d allocates %.1f objects/op, want 0", batch, allocs)
		}
	}
}

// TestQuantizedPlanSharedAcrossSessionsRace hammers one int8 plan from many
// goroutines across per-goroutine sessions and the pooled Forward path; with
// -race this is the quantized plan's immutability check, and in any mode it
// pins result determinism across concurrent executors.
func TestQuantizedPlanSharedAcrossSessionsRace(t *testing.T) {
	cfg := resnet.Config{
		Channels: 5, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2,
		InitialOutputFeature: 8, NumClasses: 2,
	}
	_, container := exportModel(t, cfg, 61)
	plan, err := LoadPlan(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	qplan, err := plan.QuantizeSynthetic(32)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(tensor.NewRNG(13), 1, 2, cfg.Channels, 32, 32)
	ref, err := qplan.Forward(x)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := qplan.NewSession()
			for it := 0; it < 6; it++ {
				var logits *tensor.Tensor
				var err error
				if (g+it)%2 == 0 {
					logits, err = sess.Forward(x)
				} else {
					logits, err = qplan.Forward(x)
				}
				if err != nil {
					errs <- err
					return
				}
				for i, rv := range ref.Data() {
					if logits.Data()[i] != rv {
						t.Errorf("goroutine %d iter %d: logit %d = %v, want %v", g, it, i, logits.Data()[i], rv)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQuantizedCostGraph pins the precision coefficient plumbing: an int8
// plan's cost graph carries Int8CostScale and predicts strictly lower
// latency than the float graph on every paper device, while keeping the
// kernel sequence identical.
func TestQuantizedCostGraph(t *testing.T) {
	cfg := resnet.Config{
		Channels: 5, Batch: 4, KernelSize: 7, Stride: 2, Padding: 3,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2,
		InitialOutputFeature: 16, NumClasses: 2,
	}
	_, container := exportModel(t, cfg, 83)
	plan, err := LoadPlan(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	qplan, err := plan.QuantizeSynthetic(32)
	if err != nil {
		t.Fatal(err)
	}
	fg, err := plan.CostGraph(32)
	if err != nil {
		t.Fatal(err)
	}
	qg, err := qplan.CostGraph(32)
	if err != nil {
		t.Fatal(err)
	}
	if fg.CostScale != 0 {
		t.Fatalf("float graph cost scale %v, want 0", fg.CostScale)
	}
	if qg.CostScale != latmeter.Int8CostScale {
		t.Fatalf("int8 graph cost scale %v, want %v", qg.CostScale, latmeter.Int8CostScale)
	}
	if len(fg.Kernels) != len(qg.Kernels) {
		t.Fatalf("kernel count %d vs %d", len(fg.Kernels), len(qg.Kernels))
	}
	for _, dev := range latmeter.Devices() {
		f, q := dev.LatencyMS(fg), dev.LatencyMS(qg)
		if !(q < f) {
			t.Errorf("%s: int8 %.3fms not below fp32 %.3fms", dev.Name, q, f)
		}
	}
}

func TestParsePrecisionAndModelKey(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
	}{{"", PrecisionFP32}, {"fp32", PrecisionFP32}, {"Float32", PrecisionFP32}, {"int8", PrecisionInt8}, {"I8", PrecisionInt8}} {
		got, err := ParsePrecision(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParsePrecision("fp16"); err == nil {
		t.Error("ParsePrecision(fp16) should fail")
	}

	name, prec, err := ParseModelKey("culvert@int8")
	if err != nil || name != "culvert" || prec != PrecisionInt8 {
		t.Errorf("ParseModelKey(culvert@int8) = %q, %v, %v", name, prec, err)
	}
	name, prec, err = ParseModelKey("culvert")
	if err != nil || name != "culvert" || prec != PrecisionFP32 {
		t.Errorf("ParseModelKey(culvert) = %q, %v, %v", name, prec, err)
	}
	if _, _, err := ParseModelKey("@int8"); err == nil {
		t.Error("ParseModelKey(@int8) should fail")
	}
	if _, _, err := ParseModelKey("m@fp17"); err == nil {
		t.Error("ParseModelKey(m@fp17) should fail")
	}
	if got := ModelKey("m", PrecisionInt8); got != "m@int8" {
		t.Errorf("ModelKey int8 = %q", got)
	}
	if got := ModelKey("m", PrecisionFP32); got != "m" {
		t.Errorf("ModelKey fp32 = %q", got)
	}
}

// quantizedPlanPin is the sha256 of an int8 plan calibrated at the commit
// before calibration moved onto Session.Forward (it ran a private executor
// of its own): the input scale, every residual join's and the global pool's
// scale ratios, and the logits the plan gives one fixed batch. Any
// activation scale that moves moves one of those. The float forwards behind
// the scales are only reproducible bit for bit under the kernel arithmetic
// they were captured with, which every 6×16 kernel shares. Re-captured when the training FC head moved onto the
// convolution driver: exportModel's SGD steps run through the head's
// backward, so the trained weights moved; the containers trained before
// that move still hash to the earlier pin, 7a47bbb9…. Re-captured again when
// the fp32 plans' stride-1 3×3 convolutions moved onto the Winograd path:
// calibration runs the fp32 forward, so the activation scales moved by its
// rounding (the pin before was ec1a5720…).
const (
	quantizedPlanPin      = "12d0022658390a12e8a50eebe4615e38f53dceae74244f2fae5e2175999a64de"
	quantizedPlanPinArith = "fused-6x16"
)

func TestQuantizedPlanPin(t *testing.T) {
	if k := tensor.GemmArithmetic(); k != quantizedPlanPinArith {
		t.Skipf("pin captured under the %s arithmetic, this process runs %s", quantizedPlanPinArith, tensor.GemmKernelName())
	}
	h := sha256.New()
	for i, cfg := range []resnet.Config{
		{Channels: 5, Batch: 4, KernelSize: 7, Stride: 2, Padding: 3,
			PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 8, NumClasses: 2},
		{Channels: 7, Batch: 4, KernelSize: 3, Stride: 1, Padding: 1,
			PoolChoice: 1, KernelSizePool: 2, StridePool: 2, InitialOutputFeature: 4, NumClasses: 2},
		{Channels: 3, Batch: 4, KernelSize: 5, Stride: 2, Padding: 2,
			PoolChoice: 0, InitialOutputFeature: 8, NumClasses: 3},
	} {
		_, container := exportModel(t, cfg, uint64(700+i))
		plan, err := LoadPlan(bytes.NewReader(container))
		if err != nil {
			t.Fatal(err)
		}
		q, err := plan.QuantizeSynthetic(32)
		if err != nil {
			t.Fatal(err)
		}
		scales := []float32{q.inScale}
		for _, op := range q.ops {
			scales = append(scales, op.ra, op.rb, op.ratio)
		}
		logits, err := q.Forward(tensor.RandNormal(tensor.NewRNG(uint64(800+i)), 1, 3, cfg.Channels, 40, 24))
		if err != nil {
			t.Fatal(err)
		}
		binary.Write(h, binary.LittleEndian, scales)
		binary.Write(h, binary.LittleEndian, logits.Data())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != quantizedPlanPin {
		t.Errorf("quantized plans hash to %s, captured %s", got, quantizedPlanPin)
	}
}
