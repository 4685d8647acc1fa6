package latmeter

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"drainnas/internal/nas"
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

// TestPredictGraphMatchesPerDevice holds the one-pass PredictGraph to the
// per-device methods it replaced, with == and not a tolerance: over every raw
// configuration of the paper's space, at the deployment input and at 32, in
// fp32 and int8, each latency equals Device.LatencyMS, each energy
// Device.EnergyMJ, and mean and std the formulas over those latencies.
func TestPredictGraphMatchesPerDevice(t *testing.T) {
	configs := nas.PaperSpace().EnumerateAll(nas.PaperInputCombos())
	if len(configs) != 1728 {
		t.Fatalf("%d configs, want 1,728", len(configs))
	}
	devs := Devices()
	const n = float64(NumDevices)
	checked := 0
	for _, size := range []int{DefaultInputSize, 32} {
		for _, cfg := range configs {
			fp32, err := Decompose(cfg, size)
			if err != nil {
				continue
			}
			for _, g := range []Graph{fp32, fp32.Int8()} {
				p := PredictGraph(g)
				sum, energy := 0.0, 0.0
				for i, d := range devs {
					ms, mj := d.LatencyMS(g), d.EnergyMJ(g)
					if p.PerDevice[i] != ms || p.EnergyMJ[i] != mj {
						t.Fatalf("%s @%d scale %v on %s: pass %v ms / %v mJ, LatencyMS %v / EnergyMJ %v",
							cfg.Key(), size, g.CostScale, d.Name, p.PerDevice[i], p.EnergyMJ[i], ms, mj)
					}
					sum += ms
					energy += mj
				}
				mean := sum / n
				ss := 0.0
				for _, d := range devs {
					diff := d.LatencyMS(g) - mean
					ss += diff * diff
				}
				if p.MeanMS != mean || p.StdMS != math.Sqrt(ss/n) || p.MeanEnergyMJ != energy/n {
					t.Fatalf("%s @%d scale %v: mean/std/energy %v/%v/%v, want %v/%v/%v", cfg.Key(), size,
						g.CostScale, p.MeanMS, p.StdMS, p.MeanEnergyMJ, mean, math.Sqrt(ss/n), energy/n)
				}
				checked++
			}
		}
	}
	// Some stems collapse a 32-pixel input; most do not.
	t.Logf("checked %d", checked)
	if checked < 2*1728+1728 {
		t.Fatalf("only %d graphs priced", checked)
	}
}

// TestPerDevicePricingDoesNotAllocate: router, capsim and the simulators
// price graphs through these methods, and none of them pays an allocation.
func TestPerDevicePricingDoesNotAllocate(t *testing.T) {
	g, err := Decompose(resnet.StockResNet18(5, 8), DefaultInputSize)
	if err != nil {
		t.Fatal(err)
	}
	d := Devices()[0]
	sink := 0.0
	if allocs := testing.AllocsPerRun(10, func() {
		sink += d.LatencyMS(g) + d.KernelLatencyMS(g.Kernels[0]) + d.Service(g).PerItemMS
	}); allocs != 0 {
		t.Fatalf("LatencyMS/KernelLatencyMS/Service allocate %.0f times", allocs)
	}
	if sink <= 0 {
		t.Fatal("no latency")
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
	energy := func(cfg resnet.Config) Prediction {
		t.Helper()
		g, err := Decompose(cfg, DefaultInputSize)
		if err != nil {
			t.Fatal(err)
		}
		return PredictGraph(g)
	}
	small, stock := energy(smallConfig()), energy(resnet.StockResNet18(5, 8))
	if small.MeanEnergyMJ <= 0 || stock.MeanEnergyMJ <= 0 {
		t.Fatal("non-positive energy")
	}
	// Smaller/faster models must use less energy on every device.
	cpu, vpu := -1, -1
	for i, d := range Devices() {
		if small.EnergyMJ[i] >= stock.EnergyMJ[i] {
			t.Fatalf("%s: small %.2f mJ not below stock %.2f mJ",
				d.Name, small.EnergyMJ[i], stock.EnergyMJ[i])
		}
		switch d.Name {
		case "cortexA76cpu":
			cpu = i
		case "myriadvpu":
			vpu = i
		}
	}
	// Energy scale sanity: a mobile inference costs tens to a few hundred
	// millijoules, not microjoules or joules.
	if stock.MeanEnergyMJ < 5 || stock.MeanEnergyMJ > 2000 {
		t.Fatalf("stock energy %.2f mJ implausible", stock.MeanEnergyMJ)
	}
	// The VPU is the most efficient device per inference on the stock model
	// relative to the CPU (that's its reason to exist).
	if stock.EnergyMJ[vpu] >= stock.EnergyMJ[cpu] {
		t.Fatalf("VPU %.2f mJ not below CPU %.2f mJ", stock.EnergyMJ[vpu], stock.EnergyMJ[cpu])
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
		// BatchMS(1) reproduces the batch-1 prediction to within rounding.
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

// samePrediction reports whether two predictions agree in every field,
// floats compared by bit pattern.
func samePrediction(a, b Prediction) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.MeanMS, b.MeanMS) || !same(a.StdMS, b.StdMS) || !same(a.MeanEnergyMJ, b.MeanEnergyMJ) {
		return false
	}
	for i := range a.EnergyMJ {
		if !same(a.PerDevice[i], b.PerDevice[i]) || !same(a.EnergyMJ[i], b.EnergyMJ[i]) {
			return false
		}
	}
	return true
}

// TestPricerMatchesPredictGraph runs one Pricer over every graph below in
// turn, so most of its kernels come out of its table, and holds each of its
// predictions to a fresh PredictGraph bit for bit: the paper's space at the
// deployment input and at 32 in fp32 and int8 (which bypasses the table),
// a network too wide for a table key (16,384 channels in stage 4) and an
// input too large for one.
func TestPricerMatchesPredictGraph(t *testing.T) {
	wide := smallConfig()
	wide.InitialOutputFeature = 2048
	var graphs []Graph
	for _, size := range []int{DefaultInputSize, 32} {
		for _, cfg := range append(nas.PaperSpace().EnumerateAll(nas.PaperInputCombos()), wide) {
			if g, err := Decompose(cfg, size); err == nil {
				graphs = append(graphs, g, g.Int8())
			}
		}
	}
	huge, err := Decompose(smallConfig(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, huge)
	p := NewPricer()
	for i, g := range graphs {
		if got, want := p.Predict(g), PredictGraph(g); !samePrediction(got, want) {
			t.Fatalf("graph %d (input %d, scale %v): table-priced %+v, fresh %+v", i, g.InputSize, g.CostScale, got, want)
		}
	}
}

// TestLoweringIntoBuffersDoesNotAllocate: a sweep lowers every trial into
// the same layer and kernel buffers, and once they have grown neither step
// allocates. The graph is Decompose's.
func TestLoweringIntoBuffersDoesNotAllocate(t *testing.T) {
	cfg := resnet.StockResNet18(5, 8)
	var layers []resnet.Layer
	var g Graph
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if layers, err = cfg.AppendLayersAt(layers[:0], DefaultInputSize); err != nil {
			t.Fatal(err)
		}
		g = LowerTo(g.Kernels, layers)
	})
	if allocs != 0 {
		t.Errorf("building the layer list and kernel graph into reused buffers allocates %.0f times", allocs)
	}
	want, err := Decompose(cfg, DefaultInputSize)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("LowerTo gives %+v, Decompose %+v", g, want)
	}
}

// TestDeviceMSJSONMatchesMap holds DeviceMS's JSON to the bytes of the
// map from device name to latency it replaced, for latencies spanning
// every float format encoding/json uses, and reads them back unchanged:
// the zero value is null both ways, a NaN is an error, and so is an
// unknown device.
func TestDeviceMSJSONMatchesMap(t *testing.T) {
	rng := tensor.NewRNG(5)
	values := []float64{0, -0.0, 1, 12.5, 1e-6, 9.99e-7, 1e-9, 5e-324, 1e20, 1e21, 3.4e38, -2.5e-8, 31.852263846320596}
	for n := 0; n < 200; n++ {
		var d DeviceMS
		byName := map[string]float64{}
		for i, dev := range Devices() {
			v := values[rng.Intn(len(values))]
			if n%2 == 1 {
				v = math.Ldexp(rng.Float64(), rng.Intn(160)-80)
			}
			d[i], byName[dev.Name] = v, v
		}
		if d == (DeviceMS{}) {
			continue
		}
		got, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(byName)
		if !bytes.Equal(got, want) {
			t.Fatalf("DeviceMS %v encodes to\n%s\nthe map to\n%s", d, got, want)
		}
		var back DeviceMS
		if err := json.Unmarshal(got, &back); err != nil || back != d {
			t.Fatalf("%s read back as %v (%v), want %v", got, back, err, d)
		}
	}

	type row struct {
		PerDevice DeviceMS `json:"per_device_ms"`
	}
	var nilMap struct {
		PerDevice map[string]float64 `json:"per_device_ms"`
	}
	got, _ := json.Marshal(row{})
	want, _ := json.Marshal(nilMap)
	if !bytes.Equal(got, want) {
		t.Fatalf("zero DeviceMS encodes to %s, a nil map to %s", got, want)
	}
	back := row{PerDevice: DeviceMS{1, 2, 3, 4}}
	if err := json.Unmarshal(got, &back); err != nil || back.PerDevice != (DeviceMS{}) {
		t.Fatalf("%s read back as %v (%v), want zero", got, back.PerDevice, err)
	}

	if _, err := json.Marshal(DeviceMS{1, math.NaN(), 3, 4}); err == nil {
		t.Fatal("a NaN latency encoded without error")
	}
	if err := json.Unmarshal([]byte(`{"pentium":3}`), &back.PerDevice); err == nil {
		t.Fatal("an unknown device decoded without error")
	}
}
