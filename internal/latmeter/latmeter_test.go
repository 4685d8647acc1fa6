package latmeter

import (
	"math"
	"testing"
	"testing/quick"

	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

func smallConfig() resnet.Config {
	return resnet.Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 32, NumClasses: 2}
}

func TestDecomposeStockKernelCount(t *testing.T) {
	g, err := Decompose(resnet.StockResNet18(5, 8), 100)
	if err != nil {
		t.Fatal(err)
	}
	// conv1 + maxpool + 8 blocks × (2 convs + add) + 3 downsamples + gap + fc
	// = 2 + 24 + 3 + 2 = 31 kernels.
	if len(g.Kernels) != 31 {
		t.Fatalf("kernel count %d, want 31", len(g.Kernels))
	}
	// A no-pool narrow config loses the pool kernel.
	g2, err := Decompose(smallConfig(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Kernels) != 30 {
		t.Fatalf("no-pool kernel count %d, want 30", len(g2.Kernels))
	}
}

func TestDecomposeSpatialChain(t *testing.T) {
	g, _ := Decompose(resnet.StockResNet18(5, 8), 100)
	// Every kernel's input spatial must equal the previous kernel's output
	// (skipping the parallel downsample/add kernels which share inputs).
	for i, k := range g.Kernels {
		if k.OutHW <= 0 || k.HW <= 0 {
			t.Fatalf("kernel %d (%s) has empty spatial dims: %+v", i, k.Name, k)
		}
	}
	// Final FC sees the last stage width.
	last := g.Kernels[len(g.Kernels)-1]
	if last.Type != KFC || last.InC != 512 || last.OutC != 2 {
		t.Fatalf("final kernel %+v", last)
	}
}

func TestDecomposeRejectsCollapse(t *testing.T) {
	cfg := resnet.StockResNet18(5, 8)
	cfg.Padding = 0
	if _, err := Decompose(cfg, 6); err == nil {
		t.Fatal("expected error for collapsing input")
	}
	bad := cfg
	bad.Stride = 0
	if _, err := Decompose(bad, 100); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestFLOPsMatchesClosedForm(t *testing.T) {
	k := Kernel{Type: KConvBNReLU, InC: 3, OutC: 8, HW: 10, OutHW: 10, K: 3, S: 1}
	wantMACs := 10.0 * 10 * 8 * 3 * 9
	if got := k.FLOPs(); math.Abs(got-(2*wantMACs+3*100*8)) > 1 {
		t.Fatalf("FLOPs=%v", got)
	}
	fc := Kernel{Type: KFC, InC: 512, OutC: 2, HW: 1, OutHW: 1}
	if got := fc.FLOPs(); got != 2*512*2 {
		t.Fatalf("FC FLOPs=%v", got)
	}
}

func TestGraphTotalsPositiveAndMonotone(t *testing.T) {
	gSmall, _ := Decompose(smallConfig(), 100)
	wide := smallConfig()
	wide.InitialOutputFeature = 64
	gWide, _ := Decompose(wide, 100)
	if gSmall.TotalFLOPs() <= 0 || gSmall.TotalBytes() <= 0 {
		t.Fatal("non-positive totals")
	}
	if gWide.TotalFLOPs() <= gSmall.TotalFLOPs() {
		t.Fatal("wider model must have more FLOPs")
	}
	if gWide.TotalBytes() <= gSmall.TotalBytes() {
		t.Fatal("wider model must move more bytes")
	}
}

func TestPredictBaselineMatchesPaperTable5Scale(t *testing.T) {
	// Calibration anchor: the stock ResNet-18 variants should land near the
	// paper's Table 5 (31.91 ms / 32.46 ms mean, ~20 ms std across devices).
	p5, err := Predict(resnet.StockResNet18(5, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p5.MeanMS < 25 || p5.MeanMS > 40 {
		t.Fatalf("stock 5ch mean %.2f ms, want ≈32", p5.MeanMS)
	}
	if p5.StdMS < 12 || p5.StdMS > 28 {
		t.Fatalf("stock 5ch std %.2f ms, want ≈20", p5.StdMS)
	}
	p7, _ := Predict(resnet.StockResNet18(7, 8), 0)
	if p7.MeanMS <= p5.MeanMS {
		t.Fatal("7-channel input must cost more than 5-channel")
	}
}

func TestPredictNonDominatedModelsFaster(t *testing.T) {
	// The paper's headline: the narrow k3 configs are several times faster
	// and ~4x smaller than stock ResNet-18.
	small, _ := Predict(smallConfig(), 0)
	stock, _ := Predict(resnet.StockResNet18(5, 8), 0)
	if ratio := stock.MeanMS / small.MeanMS; ratio < 2 {
		t.Fatalf("stock/small latency ratio %.2f, want > 2", ratio)
	}
}

func TestPredictBatchInvariance(t *testing.T) {
	// Latency prediction is batch-1 inference: batch size must not matter,
	// matching Table 5 (same latency across batch 8/16/32).
	a, _ := Predict(resnet.StockResNet18(5, 8), 0)
	b, _ := Predict(resnet.StockResNet18(5, 32), 0)
	if a.MeanMS != b.MeanMS {
		t.Fatalf("batch size changed latency: %v vs %v", a.MeanMS, b.MeanMS)
	}
}

func TestPredictionOrderingsHold(t *testing.T) {
	// Property-style orderings over the search axes: more channels, wider
	// features, larger kernels, or stride 1 must never be faster.
	base := smallConfig()
	pb, _ := Predict(base, 0)

	ch7 := base
	ch7.Channels = 7
	p7, _ := Predict(ch7, 0)
	if p7.MeanMS < pb.MeanMS {
		t.Fatal("7ch faster than 5ch")
	}

	wide := base
	wide.InitialOutputFeature = 64
	pw, _ := Predict(wide, 0)
	if pw.MeanMS <= pb.MeanMS {
		t.Fatal("wider model not slower")
	}

	bigK := base
	bigK.KernelSize = 7
	bigK.Padding = 3
	pk, _ := Predict(bigK, 0)
	if pk.MeanMS <= pb.MeanMS {
		t.Fatal("7x7 stem not slower")
	}

	s1 := base
	s1.Stride = 1
	ps, _ := Predict(s1, 0)
	if ps.MeanMS <= pb.MeanMS*1.5 {
		t.Fatalf("stride-1 stem must be much slower: %.2f vs %.2f", ps.MeanMS, pb.MeanMS)
	}
}

func TestDevicesTable2Metadata(t *testing.T) {
	ds := Devices()
	if len(ds) != 4 {
		t.Fatalf("%d devices, want 4", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Name] = true
		if d.CompGFLOPS <= 0 || d.DRAMGBs <= 0 || d.CacheGBs <= 0 {
			t.Fatalf("device %s has non-positive coefficients", d.Name)
		}
	}
	for _, want := range []string{"cortexA76cpu", "adreno640gpu", "adreno630gpu", "myriadvpu"} {
		if !names[want] {
			t.Fatalf("missing device %s", want)
		}
	}
	if _, err := DeviceByName("tpu"); err == nil {
		t.Fatal("unknown device must error")
	}
}

func TestPredictionStatsConsistent(t *testing.T) {
	// Property: MeanMS equals the mean of PerDevice; StdMS is the
	// population std.
	f := func(widthSel uint8) bool {
		cfg := smallConfig()
		cfg.InitialOutputFeature = []int{32, 48, 64}[widthSel%3]
		p, err := Predict(cfg, 0)
		if err != nil {
			return false
		}
		sum, ss := 0.0, 0.0
		for _, v := range p.PerDevice {
			sum += v
		}
		mean := sum / 4
		for _, v := range p.PerDevice {
			ss += (v - mean) * (v - mean)
		}
		return math.Abs(mean-p.MeanMS) < 1e-9 && math.Abs(math.Sqrt(ss/4)-p.StdMS) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 9}); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	cfg := resnet.StockResNet18(5, 8)
	names, lats, err := Breakdown(cfg, 100, "cortexA76cpu")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(lats) || len(names) != 31 {
		t.Fatalf("breakdown sizes %d/%d", len(names), len(lats))
	}
	sum := 0.0
	for _, l := range lats {
		sum += l
	}
	d, _ := DeviceByName("cortexA76cpu")
	g, _ := Decompose(cfg, 100)
	if math.Abs(sum-d.LatencyMS(g)) > 1e-9 {
		t.Fatalf("breakdown sum %.4f != total %.4f", sum, d.LatencyMS(g))
	}
}

// sampleGraphs decomposes the full per-combo search space (288 raw
// configurations, 180 distinct networks) so the validation statistics
// average over many per-model bias draws, as nn-Meter's published accuracy
// numbers average over a large model corpus.
func sampleGraphs(t *testing.T) ([]Graph, []string) {
	t.Helper()
	var graphs []Graph
	var keys []string
	for _, ks := range []int{3, 7} {
		for _, st := range []int{1, 2} {
			for _, pad := range []int{1, 2, 3} {
				for _, pool := range []int{0, 1} {
					for _, kp := range []int{2, 3} {
						for _, sp := range []int{1, 2} {
							for _, f := range []int{32, 48, 64} {
								cfg := resnet.Config{Channels: 5, Batch: 8,
									KernelSize: ks, Stride: st, Padding: pad,
									PoolChoice: pool, KernelSizePool: kp, StridePool: sp,
									InitialOutputFeature: f, NumClasses: 2}
								g, err := Decompose(cfg, 100)
								if err != nil {
									t.Fatal(err)
								}
								graphs = append(graphs, g)
								keys = append(keys, cfg.Key())
							}
						}
					}
				}
			}
		}
	}
	return graphs, keys
}

func TestValidateReproducesTable2Accuracies(t *testing.T) { checkTable2(t) }

// TestReproCheckTable2 puts the predictors' ±10 % accuracy under make
// repro-check, beside core's pin of the trial counts and the front.
func TestReproCheckTable2(t *testing.T) { checkTable2(t) }

func checkTable2(t *testing.T) {
	// Table 2: cortexA76cpu 99.0%, adreno640gpu 99.1%, adreno630gpu 99.0%,
	// myriadvpu 83.4% of predictions within ±10%.
	graphs, keys := sampleGraphs(t)
	want := map[string]float64{
		"cortexA76cpu": 0.990, "adreno640gpu": 0.991,
		"adreno630gpu": 0.990, "myriadvpu": 0.834,
	}
	for _, d := range Devices() {
		sim := NewDeviceSimulator(d, 2023)
		res := sim.Validate(graphs, keys, 20000, 7)
		tol := 0.02
		if d.Name == "myriadvpu" {
			tol = 0.06
		}
		if math.Abs(res.Within10Pct-want[d.Name]) > tol {
			t.Errorf("%s within-10%% = %.3f, want %.3f ± %.2f",
				d.Name, res.Within10Pct, want[d.Name], tol)
		}
	}
}

func TestVPUSimulatorNoisier(t *testing.T) {
	graphs, keys := sampleGraphs(t)
	accOf := func(name string) float64 {
		d, _ := DeviceByName(name)
		sim := NewDeviceSimulator(d, 99)
		return sim.Validate(graphs, keys, 8000, 3).Within10Pct
	}
	if accOf("myriadvpu") >= accOf("cortexA76cpu") {
		t.Fatal("VPU predictor must be less accurate than the mobile CPU predictor")
	}
}

func TestSimulatorDeterministicBias(t *testing.T) {
	d, _ := DeviceByName("cortexA76cpu")
	s1 := NewDeviceSimulator(d, 5)
	s2 := NewDeviceSimulator(d, 5)
	if s1.modelBias("abc") != s2.modelBias("abc") {
		t.Fatal("model bias must be deterministic in the seed")
	}
	if s1.modelBias("abc") == s1.modelBias("abd") {
		t.Fatal("distinct models should get distinct biases")
	}
}

func TestKernelTypeString(t *testing.T) {
	for k, want := range map[KernelType]string{
		KConvBNReLU: "conv-bn-relu", KConvBN: "conv-bn", KMaxPool: "maxpool",
		KAddReLU: "add-relu", KGlobalAvgPool: "gap", KFC: "fc",
	} {
		if k.String() != want {
			t.Errorf("%d.String()=%q want %q", int(k), k.String(), want)
		}
	}
	if KernelType(99).String() == "" {
		t.Error("unknown kernel type must still render")
	}
}

func TestEnergyModelOrderings(t *testing.T) {
	small, err := PredictEnergy(smallConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	stock, err := PredictEnergy(resnet.StockResNet18(5, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	if small.MeanMJ <= 0 || stock.MeanMJ <= 0 {
		t.Fatal("non-positive energy")
	}
	// Smaller/faster models must use less energy on every device.
	for _, d := range Devices() {
		if small.PerDevice[d.Name] >= stock.PerDevice[d.Name] {
			t.Fatalf("%s: small %.2f mJ not below stock %.2f mJ",
				d.Name, small.PerDevice[d.Name], stock.PerDevice[d.Name])
		}
	}
	// Energy scale sanity: a mobile inference costs tens to a few hundred
	// millijoules, not microjoules or joules.
	if stock.MeanMJ < 5 || stock.MeanMJ > 2000 {
		t.Fatalf("stock energy %.2f mJ implausible", stock.MeanMJ)
	}
	// The VPU is the most efficient device per inference on the stock model
	// relative to the CPU (that's its reason to exist).
	if stock.PerDevice["myriadvpu"] >= stock.PerDevice["cortexA76cpu"] {
		t.Fatalf("VPU %.2f mJ not below CPU %.2f mJ",
			stock.PerDevice["myriadvpu"], stock.PerDevice["cortexA76cpu"])
	}
}

func TestEnergyRejectsInvalid(t *testing.T) {
	if _, err := PredictEnergy(resnet.Config{}, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestPredictionFiniteOverWholeSpace(t *testing.T) {
	// Property: every raw configuration of the paper space gets a positive,
	// finite latency on every device, and std < mean (the four devices are
	// correlated, not wild).
	f := func(sel uint64) bool {
		rng := tensor.NewRNG(sel)
		cfg := resnet.Config{
			Channels:             []int{5, 7}[rng.Intn(2)],
			Batch:                []int{8, 16, 32}[rng.Intn(3)],
			KernelSize:           []int{3, 7}[rng.Intn(2)],
			Stride:               []int{1, 2}[rng.Intn(2)],
			Padding:              []int{1, 2, 3}[rng.Intn(3)],
			PoolChoice:           rng.Intn(2),
			KernelSizePool:       []int{2, 3}[rng.Intn(2)],
			StridePool:           []int{1, 2}[rng.Intn(2)],
			InitialOutputFeature: []int{32, 48, 64}[rng.Intn(3)],
			NumClasses:           2,
		}
		p, err := Predict(cfg, 0)
		if err != nil {
			return false
		}
		if !(p.MeanMS > 0) || math.IsInf(p.MeanMS, 0) || math.IsNaN(p.MeanMS) {
			return false
		}
		if p.StdMS < 0 || p.StdMS >= p.MeanMS {
			return false
		}
		for _, v := range p.PerDevice {
			if !(v > 0) || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestServiceModelDecomposesLatency(t *testing.T) {
	cfg := resnet.StockResNet18(5, 8)
	g, err := Decompose(cfg, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Devices() {
		sm := d.Service(g)
		if sm.PerItemMS <= 0 || sm.PerBatchMS <= 0 {
			t.Fatalf("%s: degenerate service model %+v", d.Name, sm)
		}
		// BatchMS(1) reproduces the batch-1 prediction exactly.
		if lat := d.LatencyMS(g); math.Abs(sm.BatchMS(1)-lat) > 1e-9*lat {
			t.Fatalf("%s: BatchMS(1)=%.6f, LatencyMS=%.6f", d.Name, sm.BatchMS(1), lat)
		}
		// Work scales linearly, overhead amortizes: per-item cost strictly
		// drops with batch size.
		if b8 := sm.BatchMS(8) / 8; b8 >= sm.BatchMS(1) {
			t.Fatalf("%s: batching buys nothing (%.4f/item at 8 vs %.4f at 1)", d.Name, b8, sm.BatchMS(1))
		}
		// n<1 clamps to 1.
		if sm.BatchMS(0) != sm.BatchMS(1) {
			t.Fatalf("%s: BatchMS(0) != BatchMS(1)", d.Name)
		}
	}

	// An int8 graph scales work, not overhead.
	qg := g.Int8()
	d := Devices()[0]
	fp, q := d.Service(g), d.Service(qg)
	if q.PerBatchMS != fp.PerBatchMS {
		t.Fatalf("int8 overhead changed: %.4f vs %.4f", q.PerBatchMS, fp.PerBatchMS)
	}
	if q.PerItemMS >= fp.PerItemMS {
		t.Fatalf("int8 work %.4f not below fp32 %.4f", q.PerItemMS, fp.PerItemMS)
	}

	// Scaled applies the calibration knobs multiplicatively; non-positive
	// scales mean identity.
	s := fp.Scaled(1.5, 0.5)
	if math.Abs(s.PerItemMS-1.5*fp.PerItemMS) > 1e-12 || math.Abs(s.PerBatchMS-0.5*fp.PerBatchMS) > 1e-12 {
		t.Fatalf("Scaled(1.5, 0.5) = %+v from %+v", s, fp)
	}
	if id := fp.Scaled(0, -1); id != fp {
		t.Fatalf("Scaled(0,-1) = %+v, want identity %+v", id, fp)
	}
}
