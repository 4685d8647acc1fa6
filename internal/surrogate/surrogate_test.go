package surrogate

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

func TestDefaultMatchesTable5Baselines(t *testing.T) {
	// Paper Table 5 stock ResNet-18 accuracies.
	want := map[[2]int]float64{
		{5, 8}: 92.9, {5, 16}: 93.6, {5, 32}: 89.67,
		{7, 8}: 94.76, {7, 16}: 95.37, {7, 32}: 94.51,
	}
	m := Default()
	for key, acc := range want {
		cfg := resnet.StockResNet18(key[0], key[1])
		got := m.Mean(cfg)
		if math.Abs(got-acc) > 2.6 {
			t.Errorf("stock %dch b%d: mean %.2f, paper %.2f", key[0], key[1], got, acc)
		}
	}
	// Ordering within each channel count: b16 > b8 > b32 (Table 5).
	for _, ch := range []int{5, 7} {
		a8 := m.Mean(resnet.StockResNet18(ch, 8))
		a16 := m.Mean(resnet.StockResNet18(ch, 16))
		a32 := m.Mean(resnet.StockResNet18(ch, 32))
		if !(a16 > a8 && a8 > a32) {
			t.Errorf("%dch batch ordering broken: %v %v %v", ch, a8, a16, a32)
		}
	}
	// 7 channels beat 5 channels at equal batch.
	if m.Mean(resnet.StockResNet18(7, 16)) <= m.Mean(resnet.StockResNet18(5, 16)) {
		t.Error("7ch must beat 5ch")
	}
}

func TestBestConfigNearPaperMax(t *testing.T) {
	// The paper's top solution: 7ch, b16, k3 s2 p1, no pool, width 32 →
	// 96.13%.
	best := resnet.Config{Channels: 7, Batch: 16, KernelSize: 3, Stride: 2,
		Padding: 1, PoolChoice: 0, InitialOutputFeature: 32, NumClasses: 2}
	m := Default()
	if got := m.Mean(best); math.Abs(got-96.13) > 1.5 {
		t.Fatalf("best config mean %.2f, paper 96.13", got)
	}
}

func TestAccuracyDeterministic(t *testing.T) {
	m := Default()
	cfg := resnet.StockResNet18(5, 8)
	if m.Accuracy(cfg) != m.Accuracy(cfg) {
		t.Fatal("Accuracy must be deterministic per trial")
	}
	// Different seeds change the noise.
	m2 := m
	m2.Seed = 777
	same := 0
	for _, b := range []int{8, 16, 32} {
		if m.Accuracy(resnet.StockResNet18(5, b)) == m2.Accuracy(resnet.StockResNet18(5, b)) {
			same++
		}
	}
	if same == 3 {
		t.Fatal("seed change had no effect")
	}
}

func TestAccuracyBounded(t *testing.T) {
	f := func(chSel, bSel, kSel, pSel, wSel, poolSel uint8) bool {
		cfg := resnet.Config{
			Channels:             []int{5, 7}[chSel%2],
			Batch:                []int{8, 16, 32}[bSel%3],
			KernelSize:           []int{3, 7}[kSel%2],
			Stride:               []int{1, 2}[kSel%2],
			Padding:              []int{1, 2, 3}[pSel%3],
			PoolChoice:           int(poolSel % 2),
			KernelSizePool:       2,
			StridePool:           2,
			InitialOutputFeature: []int{32, 48, 64}[wSel%3],
			NumClasses:           2,
		}
		acc := Default().Accuracy(cfg)
		return acc >= 50 && acc <= 99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStemResolutionClass(t *testing.T) {
	quarter := resnet.StockResNet18(5, 8) // s2 + pool s2
	if StemResolutionClass(quarter) != 0 {
		t.Fatal("stock must be quarter resolution")
	}
	half := quarter
	half.PoolChoice = 0
	if StemResolutionClass(half) != 1 {
		t.Fatal("s2 no-pool must be half resolution")
	}
	full := half
	full.Stride = 1
	if StemResolutionClass(full) != 2 {
		t.Fatal("s1 no-pool must be full resolution")
	}
	poolS1 := quarter
	poolS1.StridePool = 1
	if StemResolutionClass(poolS1) != 1 {
		t.Fatal("s2 + pool-s1 must be half resolution")
	}
}

func TestCalibrateRecoversKnownModel(t *testing.T) {
	// Generate noiseless observations from a known model over the whole
	// grid, fit, and check the coefficients are recovered.
	truth := Default()
	var points []CalPoint
	for _, ch := range []int{5, 7} {
		for _, b := range []int{8, 16, 32} {
			for _, k := range []struct{ ks, st int }{{3, 2}, {7, 2}, {3, 1}} {
				for _, p := range []int{1, 2, 3} {
					for _, w := range []int{32, 48, 64} {
						for _, pool := range []int{0, 1} {
							cfg := resnet.Config{Channels: ch, Batch: b,
								KernelSize: k.ks, Stride: k.st, Padding: p,
								PoolChoice: pool, KernelSizePool: 3, StridePool: 2,
								InitialOutputFeature: w, NumClasses: 2}
							points = append(points, CalPoint{cfg, truth.Mean(cfg)})
						}
					}
				}
			}
		}
	}
	fitted := Model{NoiseStd: truth.NoiseStd}.Calibrate(points)
	for name, pair := range map[string][2]float64{
		"Base": {truth.Base, fitted.Base}, "Chan7": {truth.Chan7, fitted.Chan7},
		"B16": {truth.B16, fitted.B16}, "B32": {truth.B32, fitted.B32},
		"K3": {truth.K3, fitted.K3}, "P1": {truth.P1, fitted.P1},
		"W64": {truth.W64, fitted.W64}, "Res50": {truth.Res50, fitted.Res50},
		"Res1": {truth.Res1, fitted.Res1},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-3 {
			t.Errorf("%s: truth %.4f fitted %.4f", name, pair[0], pair[1])
		}
	}
	if rmse := fitted.RMSE(points); rmse > 1e-3 {
		t.Fatalf("noiseless refit RMSE %.6f", rmse)
	}
}

func TestCalibrateWithNoiseStillClose(t *testing.T) {
	truth := Default()
	rng := tensor.NewRNG(4)
	var points []CalPoint
	for i := 0; i < 400; i++ {
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
		points = append(points, CalPoint{cfg, truth.Mean(cfg) + rng.NormFloat64()*0.5})
	}
	fitted := Model{}.Calibrate(points)
	if rmse := fitted.RMSE(points); rmse > 1.0 {
		t.Fatalf("noisy refit RMSE %.3f", rmse)
	}
	if math.Abs(fitted.Chan7-truth.Chan7) > 0.3 {
		t.Fatalf("Chan7 fitted %.3f truth %.3f", fitted.Chan7, truth.Chan7)
	}
}

func TestTailProducesLowOutliers(t *testing.T) {
	// Over the full 1,728-trial grid the minimum accuracy must fall well
	// below the bulk, reproducing Table 3's low end (76.19%).
	m := Default()
	minAcc, maxAcc := 100.0, 0.0
	count := 0
	for _, ch := range []int{5, 7} {
		for _, b := range []int{8, 16, 32} {
			for _, ks := range []int{3, 7} {
				for _, st := range []int{1, 2} {
					for _, p := range []int{1, 2, 3} {
						for _, pool := range []int{0, 1} {
							for _, kp := range []int{2, 3} {
								for _, sp := range []int{1, 2} {
									for _, w := range []int{32, 48, 64} {
										cfg := resnet.Config{Channels: ch, Batch: b,
											KernelSize: ks, Stride: st, Padding: p,
											PoolChoice: pool, KernelSizePool: kp, StridePool: sp,
											InitialOutputFeature: w, NumClasses: 2}
										acc := m.Accuracy(cfg)
										count++
										if acc < minAcc {
											minAcc = acc
										}
										if acc > maxAcc {
											maxAcc = acc
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if count != 3456 { // 1728 raw × dedup later; here the raw loop double counts no-pool variants
		t.Logf("trial count %d", count)
	}
	if minAcc > 83 {
		t.Fatalf("minimum accuracy %.2f — tail too weak (paper: 76.19)", minAcc)
	}
	if maxAcc < 94.5 || maxAcc > 99 {
		t.Fatalf("maximum accuracy %.2f (paper: 96.13)", maxAcc)
	}
}

func TestSolveSPDIdentity(t *testing.T) {
	a := [][]float64{{2, 0}, {0, 4}}
	x := solveSPD(a, []float64{4, 8})
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("solve: %v", x)
	}
}

func TestSurrogateMonotoneTrends(t *testing.T) {
	// The calibrated mean must encode the paper's observed trends
	// monotonically (no noise involved).
	m := Default()
	base := resnet.Config{Channels: 5, Batch: 8, KernelSize: 7, Stride: 2, Padding: 2,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 32, NumClasses: 2}
	ch7 := base
	ch7.Channels = 7
	if m.Mean(ch7) <= m.Mean(base) {
		t.Fatal("7ch must improve the mean")
	}
	k3 := base
	k3.KernelSize = 3
	if m.Mean(k3) <= m.Mean(base) {
		t.Fatal("3x3 stem must improve the mean")
	}
	b16 := base
	b16.Batch = 16
	b32 := base
	b32.Batch = 32
	if !(m.Mean(b16) > m.Mean(base) && m.Mean(base) > m.Mean(b32)) {
		t.Fatal("batch ordering b16 > b8 > b32 broken")
	}
}

// TestTrialKeyMatchesSprintf holds the bytes trialSeed hashes to the
// fmt.Sprintf format they replaced, over every raw configuration of the
// paper's space and fields no search produces (zero, negative, many digits):
// a changed byte would reseed every trial's noise.
func TestTrialKeyMatchesSprintf(t *testing.T) {
	var cfgs []resnet.Config
	for _, ch := range []int{5, 7} {
		for _, b := range []int{8, 16, 32} {
			for _, k := range []int{3, 7} {
				for _, s := range []int{1, 2} {
					for _, p := range []int{1, 2, 3} {
						for _, pc := range []int{0, 1} {
							for _, kp := range []int{2, 3} {
								for _, sp := range []int{1, 2} {
									for _, f := range []int{32, 48, 64} {
										cfgs = append(cfgs, resnet.Config{Channels: ch, Batch: b, KernelSize: k,
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
	if len(cfgs) != 1728 {
		t.Fatalf("%d configs, want 1,728", len(cfgs))
	}
	cfgs = append(cfgs,
		resnet.Config{},
		resnet.Config{Channels: -5, Batch: -16, KernelSize: -3, Stride: -1, Padding: -2,
			PoolChoice: 1, KernelSizePool: -3, StridePool: -2, InitialOutputFeature: -64},
		resnet.Config{Channels: 12345, Batch: 1 << 40, KernelSize: math.MaxInt, Stride: math.MinInt,
			Padding: 100, PoolChoice: -7, KernelSizePool: 9999, StridePool: 10, InitialOutputFeature: 1000000})
	for _, c := range cfgs {
		want := fmt.Sprintf("%dch%db%dk%ds%dp%dpc%dkp%dsp%df", c.Channels, c.Batch,
			c.KernelSize, c.Stride, c.Padding, c.PoolChoice,
			c.KernelSizePool, c.StridePool, c.InitialOutputFeature)
		if got := string(trialKey(nil, c)); got != want {
			t.Fatalf("%+v: trialKey = %q, want %q", c, got, want)
		}
	}
}
