package resnet

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"drainnas/internal/nn"
	"drainnas/internal/tensor"
)

func TestStockResNet18ParamCount(t *testing.T) {
	// The canonical ResNet-18 (3-channel ImageNet, 1000 classes) has
	// 11,689,512 parameters; our builder must match exactly.
	cfg := StockResNet18(3, 8)
	cfg.NumClasses = 1000
	m, err := New(cfg, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumParams(); got != 11689512 {
		t.Fatalf("stock ResNet-18 params = %d, want 11689512", got)
	}
}

func TestParamCountScalesWithChannelsAndWidth(t *testing.T) {
	r := tensor.NewRNG(1)
	m5, _ := New(StockResNet18(5, 8), r)
	m7, _ := New(StockResNet18(7, 8), r)
	// Going 5 → 7 input channels adds exactly 2*64*7*7 conv1 weights.
	if diff := m7.NumParams() - m5.NumParams(); diff != 2*64*7*7 {
		t.Fatalf("channel param delta = %d, want %d", diff, 2*64*7*7)
	}
	narrow := StockResNet18(5, 8)
	narrow.InitialOutputFeature = 32
	mN, _ := New(narrow, r)
	if mN.NumParams() >= m5.NumParams() {
		t.Fatal("narrower model must have fewer parameters")
	}
	// Width halving shrinks conv-dominated parameter count ~4x.
	ratio := float64(m5.NumParams()) / float64(mN.NumParams())
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("width-halving param ratio %.2f, want ≈4", ratio)
	}
}

func TestForwardShapes(t *testing.T) {
	r := tensor.NewRNG(2)
	for _, cfg := range []Config{
		StockResNet18(5, 8),
		{Channels: 7, Batch: 16, KernelSize: 3, Stride: 2, Padding: 1,
			PoolChoice: 0, InitialOutputFeature: 32, NumClasses: 2},
		{Channels: 5, Batch: 8, KernelSize: 3, Stride: 1, Padding: 1,
			PoolChoice: 1, KernelSizePool: 2, StridePool: 2, InitialOutputFeature: 48, NumClasses: 2},
	} {
		m, err := New(cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.RandNormal(r, 1, 2, cfg.Channels, 64, 64)
		y := m.Forward(x, false)
		if y.Dim(0) != 2 || y.Dim(1) != cfg.NumClasses {
			t.Fatalf("cfg %s: output shape %v", cfg.Key(), y.Shape())
		}
		if slices.ContainsFunc(y.Data(), func(v float32) bool { return math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) }) {
			t.Fatalf("cfg %s: NaN in output", cfg.Key())
		}
	}
}

func TestCheckSpatial(t *testing.T) {
	cfg := StockResNet18(5, 8)
	final, err := cfg.CheckSpatial(64)
	if err != nil {
		t.Fatal(err)
	}
	// 64 → conv s2 → 32 → pool s2 → 16 → three stride-2 stages → 2.
	if final != 2 {
		t.Fatalf("final spatial = %d, want 2", final)
	}
	// A stem conv larger than the (unpadded) input must be rejected.
	noPad := cfg
	noPad.Padding = 0
	if _, err := noPad.CheckSpatial(6); err == nil {
		t.Fatal("expected spatial collapse error for 6px unpadded input")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		{Channels: 5, Batch: 8, KernelSize: 3, Stride: 0, Padding: 1, InitialOutputFeature: 32, NumClasses: 2},
		{Channels: 5, Batch: 8, KernelSize: 3, Stride: 1, Padding: -1, InitialOutputFeature: 32, NumClasses: 2},
		{Channels: 5, Batch: 8, KernelSize: 3, Stride: 1, Padding: 1, PoolChoice: 2, InitialOutputFeature: 32, NumClasses: 2},
		{Channels: 5, Batch: 8, KernelSize: 3, Stride: 1, Padding: 1, PoolChoice: 1, KernelSizePool: 0, StridePool: 2, InitialOutputFeature: 32, NumClasses: 2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := StockResNet18(7, 16).Validate(); err != nil {
		t.Errorf("stock config rejected: %v", err)
	}
}

func TestCanonicalCollapsesNoPoolVariants(t *testing.T) {
	a := Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, KernelSizePool: 2, StridePool: 1, InitialOutputFeature: 32, NumClasses: 2}
	b := a
	b.KernelSizePool = 3
	b.StridePool = 2
	if a.Key() != b.Key() {
		t.Fatalf("no-pool variants must share a key: %s vs %s", a.Key(), b.Key())
	}
	c := a
	c.PoolChoice = 1
	if a.Key() == c.Key() {
		t.Fatal("pool and no-pool configs must differ")
	}
}

// TestGraphClearsWhatNoExportCarries: Graph drops batch size and a
// pool-less stem's pool kernel and stride, and keeps every other field.
func TestGraphClearsWhatNoExportCarries(t *testing.T) {
	a := Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, KernelSizePool: 2, StridePool: 1, InitialOutputFeature: 32, NumClasses: 2}
	b := a
	b.Batch, b.KernelSizePool, b.StridePool = 32, 3, 2
	if a.Graph() != b.Graph() {
		t.Fatalf("batch and a pool-less stem's pool fields reach the graph: %+v vs %+v", a.Graph(), b.Graph())
	}
	want := a
	want.Batch, want.KernelSizePool, want.StridePool = 0, 0, 0
	if a.Graph() != want {
		t.Fatalf("Graph() = %+v, want %+v", a.Graph(), want)
	}
	pooled := StockResNet18(7, 16)
	want = pooled
	want.Batch = 0
	if pooled.Graph() != want {
		t.Fatalf("Graph() of a pooled stem = %+v, want %+v", pooled.Graph(), want)
	}
	for _, other := range []func(c *Config){
		func(c *Config) { c.Channels = 5 },
		func(c *Config) { c.KernelSize = 3 },
		func(c *Config) { c.Stride = 1 },
		func(c *Config) { c.Padding = 1 },
		func(c *Config) { c.KernelSizePool = 2 },
		func(c *Config) { c.StridePool = 1 },
		func(c *Config) { c.InitialOutputFeature = 48 },
		func(c *Config) { c.NumClasses = 3 },
	} {
		c := pooled
		other(&c)
		if c.Graph() == pooled.Graph() {
			t.Fatalf("%+v and %+v share a graph", c, pooled)
		}
	}
}

func TestKeyIsInjectiveOnSearchAxes(t *testing.T) {
	// Property: distinct canonical configs have distinct keys.
	f := func(k1, s1, p1, f1, k2, s2, p2, f2 uint8) bool {
		mk := func(k, s, p, f uint8) Config {
			return Config{
				Channels: 5, Batch: 8,
				KernelSize: int(k%2)*4 + 3, Stride: int(s%2) + 1, Padding: int(p%3) + 1,
				PoolChoice: 1, KernelSizePool: 2, StridePool: 2,
				InitialOutputFeature: (int(f%3) + 2) * 16, NumClasses: 2,
			}
		}
		a, b := mk(k1, s1, p1, f1), mk(k2, s2, p2, f2)
		if a == b {
			return a.Key() == b.Key()
		}
		return a.Key() != b.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// keyConfigs is every raw configuration of the paper's search space (six
// input combinations × 288 architectures) plus fields no search produces:
// zero, negative and many-digit values.
func keyConfigs() []Config {
	var cfgs []Config
	for _, ch := range []int{5, 7} {
		for _, b := range []int{8, 16, 32} {
			for _, k := range []int{3, 7} {
				for _, s := range []int{1, 2} {
					for _, p := range []int{1, 2, 3} {
						for _, pc := range []int{0, 1} {
							for _, kp := range []int{2, 3} {
								for _, sp := range []int{1, 2} {
									for _, f := range []int{32, 48, 64} {
										cfgs = append(cfgs, Config{Channels: ch, Batch: b, KernelSize: k,
											Stride: s, Padding: p, PoolChoice: pc, KernelSizePool: kp,
											StridePool: sp, InitialOutputFeature: f, NumClasses: 2})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return append(cfgs,
		Config{},
		Config{Channels: -5, Batch: -16, KernelSize: -3, Stride: -1, Padding: -2,
			PoolChoice: 1, KernelSizePool: -3, StridePool: -2, InitialOutputFeature: -64},
		Config{Channels: 12345, Batch: 1 << 40, KernelSize: math.MaxInt, Stride: math.MinInt,
			Padding: 100, PoolChoice: -7, KernelSizePool: 9999, StridePool: 10, InitialOutputFeature: 1000000})
}

func TestKeyMatchesSprintf(t *testing.T) {
	cfgs := keyConfigs()
	if len(cfgs) != 1728+3 {
		t.Fatalf("%d configs, want the paper's 1,728 plus 3", len(cfgs))
	}
	for _, c := range cfgs {
		k := c.Canonical()
		want := fmt.Sprintf("ch%d_b%d_k%d_s%d_p%d_pool%d_kp%d_sp%d_f%d",
			k.Channels, k.Batch, k.KernelSize, k.Stride, k.Padding,
			k.PoolChoice, k.KernelSizePool, k.StridePool, k.InitialOutputFeature)
		if got := c.Key(); got != want {
			t.Fatalf("%+v: Key() = %q, want %q", c, got, want)
		}
	}
}

func TestStageWidths(t *testing.T) {
	cfg := StockResNet18(5, 8)
	cfg.InitialOutputFeature = 48
	w := cfg.StageWidths()
	want := [4]int{48, 96, 192, 384}
	if w != want {
		t.Fatalf("stage widths %v, want %v", w, want)
	}
}

func TestTrainingStepReducesLoss(t *testing.T) {
	// A narrow variant must be able to fit a tiny 2-class batch
	// (overfitting sanity check for the full forward/backward stack).
	cfg := Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 8, NumClasses: 2}
	r := tensor.NewRNG(7)
	m, err := New(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(r, 1, 8, 5, 32, 32)
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1}
	// Make the classes actually separable: add per-class offsets.
	for i, lab := range labels {
		off := float32(1.5)
		if lab == 1 {
			off = -1.5
		}
		plane := x.Data()[i*5*32*32 : i*5*32*32+32*32]
		for j := range plane {
			plane[j] += off
		}
	}
	opt := nn.NewSGD(m.Params(), 0.02, 0.9, 0)
	var first, last float64
	for step := 0; step < 12; step++ {
		y := m.Forward(x, true)
		loss, g := nn.CrossEntropy(y, labels)
		if step == 0 {
			first = loss
		}
		last = loss
		nn.ZeroGrad(m.Params())
		m.Backward(g)
		opt.Step()
	}
	if !(last < first*0.8) {
		t.Fatalf("loss did not decrease: first=%.4f last=%.4f", first, last)
	}
}

func TestDescribeMentionsKeyComponents(t *testing.T) {
	m, _ := New(StockResNet18(7, 16), tensor.NewRNG(1))
	d := m.Describe()
	for _, want := range []string{"conv1", "maxpool", "layer4", "fc", "parameters"} {
		if !contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
	noPool := StockResNet18(5, 8)
	noPool.PoolChoice = 0
	m2, _ := New(noPool, tensor.NewRNG(1))
	if !contains(m2.Describe(), "(none)") {
		t.Error("Describe must note the absent pool")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestDeterministicBuild(t *testing.T) {
	cfg := StockResNet18(5, 8)
	cfg.InitialOutputFeature = 16
	m1, _ := New(cfg, tensor.NewRNG(42))
	m2, _ := New(cfg, tensor.NewRNG(42))
	p1, p2 := m1.Params(), m2.Params()
	if len(p1) != len(p2) {
		t.Fatal("param list lengths differ")
	}
	for i := range p1 {
		d1, d2 := p1[i].Data.Data(), p2[i].Data.Data()
		for j := range d1 {
			if d1[j] != d2[j] {
				t.Fatalf("param %s differs at %d", p1[i].Name, j)
			}
		}
	}
}

func TestEvalForwardIsPure(t *testing.T) {
	// Two eval-mode forwards of the same input must agree bit-for-bit
	// (no running-stat mutation in eval mode).
	cfg := StockResNet18(5, 8)
	cfg.InitialOutputFeature = 8
	m, _ := New(cfg, tensor.NewRNG(3))
	r := tensor.NewRNG(4)
	x := tensor.RandNormal(r, 1, 2, 5, 64, 64)
	y1 := m.Forward(x, false)
	y2 := m.Forward(x, false)
	for i := range y1.Data() {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatal("eval forward not deterministic")
		}
	}
	// Nor may a sample's logits depend on the batch it rides in. At width 64
	// the head multiplies 32·512·2 = 2¹⁵ values at batch 32: a driver that
	// picked its kernel by that product would round full batches and a
	// lone sample differently.
	wide, _ := New(StockResNet18(5, 32), tensor.NewRNG(5))
	const n, size = 32, 5 * 32 * 32
	batch := tensor.RandNormal(r, 1, n, 5, 32, 32)
	logits := wide.Forward(batch, false).Data()
	for s := 0; s < n; s++ {
		alone := wide.Forward(tensor.FromSlice(batch.Data()[s*size:(s+1)*size], 1, 5, 32, 32), false).Data()
		for j, v := range alone {
			if v != logits[s*len(alone)+j] {
				t.Fatalf("sample %d logit %d: %v alone, %v at batch %d", s, j, v, logits[s*len(alone)+j], n)
			}
		}
	}
}

func TestParamsCountMatchesLayerSum(t *testing.T) {
	m, _ := New(StockResNet18(5, 8), tensor.NewRNG(1))
	if math.Abs(float64(len(m.Params()))-62) > 0 {
		// 1 stem conv + 1 stem BN(2) + 8 blocks × (2 conv + 2 BN×2 params) +
		// 3 downsample (conv + BN×2) + fc(2) = 3 + 8*6 + 3*3 + 2 = 62.
		t.Fatalf("param tensor count = %d, want 62", len(m.Params()))
	}
}

// TestModelInitMatchesScalarDraws rebuilds every weight of three networks from
// per-value NormFloat64/Uniform draws in cfg.Layers order — Kaiming normal
// for the convolutions, the uniform fan-in bound for the classifier — and
// requires New's parameters to equal them bit for bit and both generators to
// end in the same state: front32 (the paper's Table 4 front), the stock
// ResNet-18 and an odd-width network. It pins the bulk normal fill across
// layers: the spare a conv of odd size leaves pending for the next, and the
// classifier's uniform draws that follow the last fill.
func TestModelInitMatchesScalarDraws(t *testing.T) {
	front32 := Config{Channels: 5, Batch: 16, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 32, NumClasses: 2}
	// Width 3 and a 5×5 stem make odd weight counts, so fills start and
	// end with a spare pending.
	odd := Config{Channels: 7, Batch: 4, KernelSize: 5, Stride: 1, Padding: 2, InitialOutputFeature: 3, NumClasses: 3}
	for _, cfg := range []Config{front32, StockResNet18(5, 8), odd} {
		built, ref := tensor.NewRNG(13), tensor.NewRNG(13)
		m, err := New(cfg, built)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][]float32{}
		for _, l := range cfg.Layers() {
			switch l.Kind {
			case LayerConv:
				std := math.Sqrt(2.0 / float64(l.InC*l.K*l.K))
				w := make([]float32, l.OutC*l.InC*l.K*l.K)
				for i := range w {
					w[i] = float32(ref.NormFloat64() * std)
				}
				want[l.Names().Node+".weight"] = w
			case LayerFC:
				bound := 1.0 / math.Sqrt(float64(l.InC))
				for _, p := range []struct {
					name string
					n    int
				}{{".weight", l.OutC * l.InC}, {".bias", l.OutC}} {
					v := make([]float32, p.n)
					for i := range v {
						v[i] = float32(ref.Uniform(-bound, bound))
					}
					want[l.Names().Node+p.name] = v
				}
			}
		}
		matched := 0
		for _, p := range m.Params() {
			w, ok := want[p.Name]
			if !ok {
				continue // BatchNorm's scale and shift draw nothing
			}
			matched++
			got := p.Data.Data()
			if len(got) != len(w) {
				t.Fatalf("%s: %d values, reference has %d", p.Name, len(got), len(w))
			}
			for i := range w {
				if math.Float32bits(got[i]) != math.Float32bits(w[i]) {
					t.Fatalf("%s[%d] = %v, scalar draws give %v", p.Name, i, got[i], w[i])
				}
			}
		}
		if matched != len(want) {
			t.Fatalf("%d of %d drawn tensors found among the parameters", matched, len(want))
		}
		if b, r := built.Uint64(), ref.Uint64(); b != r {
			t.Fatalf("generator after New draws %#x, after the scalar draws %#x", b, r)
		}
	}
}
