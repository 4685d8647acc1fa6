package geodata

import (
	"math"
	"testing"
	"testing/quick"

	"drainnas/internal/tensor"
)

func TestFractalFieldRangeAndDeterminism(t *testing.T) {
	a := FractalField(1, 32, 4, 4, 0.5)
	b := FractalField(1, 32, 4, 4, 0.5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fractal field not deterministic")
		}
		if a[i] < 0 || a[i] > 1 {
			t.Fatalf("fractal value out of range: %v", a[i])
		}
	}
	c := FractalField(2, 32, 4, 4, 0.5)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fields")
	}
}

func TestValueNoiseContinuity(t *testing.T) {
	// Neighboring samples must be close (smooth interpolation).
	n := valueNoise{seed: 7}
	prev := n.At(0, 0.5)
	for i := 1; i <= 100; i++ {
		x := float64(i) * 0.01
		v := n.At(x, 0.5)
		if math.Abs(v-prev) > 0.1 {
			t.Fatalf("noise jump %.3f at x=%.2f", math.Abs(v-prev), x)
		}
		prev = v
	}
}

func TestNDVIandNDWI(t *testing.T) {
	// Dense vegetation: NIR high, RED low → NDVI near +1.
	if v := NDVI(0.6, 0.05); v < 0.7 {
		t.Fatalf("vegetation NDVI=%v", v)
	}
	// Open water: GREEN above NIR → NDWI positive.
	if v := NDWI(0.14, 0.02); v < 0.5 {
		t.Fatalf("water NDWI=%v", v)
	}
	// Degenerate zero denominator.
	if NDVI(0, 0) != 0 || NDWI(0, 0) != 0 {
		t.Fatal("zero denominator must yield 0")
	}
	// Property: outputs always in [-1, 1].
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		v := NDVI(a, b)
		w := NDWI(a, b)
		return v >= -1 && v <= 1 && w >= -1 && w <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCarveChannelLowersElevation(t *testing.T) {
	tr := NewTerrain(32)
	line := polyline{{X: 16, Y: 0}, {X: 16, Y: 31}}
	tr.CarveChannel(line, 2, 3)
	// On-channel cell is lower than an off-channel cell.
	if tr.Elev[16*32+16] >= tr.Elev[16*32+2] {
		t.Fatal("channel not carved")
	}
	if tr.ChannelMask[16*32+16] < 0.9 {
		t.Fatalf("channel mask weak: %v", tr.ChannelMask[16*32+16])
	}
	if tr.ChannelMask[16*32+2] > 0.1 {
		t.Fatalf("channel mask leaks: %v", tr.ChannelMask[16*32+2])
	}
}

func TestRaiseRoadLiftsElevation(t *testing.T) {
	tr := NewTerrain(32)
	line := polyline{{X: 0, Y: 16}, {X: 31, Y: 16}}
	tr.RaiseRoad(line, 2, 2, 1.5)
	if tr.Elev[16*32+10] < 1.4 {
		t.Fatalf("road crown too low: %v", tr.Elev[16*32+10])
	}
	if tr.Elev[2*32+10] > 0.1 {
		t.Fatalf("road influence leaks far: %v", tr.Elev[2*32+10])
	}
}

func TestStampCrossingSagsEmbankment(t *testing.T) {
	tr := NewTerrain(32)
	tr.RaiseRoad(polyline{{X: 0, Y: 16}, {X: 31, Y: 16}}, 2, 2, 2)
	before := tr.Elev[16*32+16]
	tr.StampCrossing(16, 16, 2.5, 1.5)
	after := tr.Elev[16*32+16]
	if after >= before {
		t.Fatal("crossing did not sag the embankment")
	}
	if tr.CrossingMask[16*32+16] < 0.9 {
		t.Fatalf("crossing mask weak: %v", tr.CrossingMask[16*32+16])
	}
}

func TestFlowAccumulationOnTiltedPlane(t *testing.T) {
	// On a plane tilted along +x, flow runs in -x and accumulation grows
	// toward the low edge.
	size := 16
	tr := NewTerrain(size)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			tr.Elev[y*size+x] = float64(x)
		}
	}
	tr.FlowAccumulation()
	// Low-edge cells accumulate their entire row.
	for y := 0; y < size; y++ {
		if got := tr.FlowAcc[y*size]; got != float64(size) {
			t.Fatalf("row %d low-edge accumulation %v, want %v", y, got, size)
		}
	}
}

func TestFlowAccumulationMassConservation(t *testing.T) {
	// Property: every cell's accumulation is at least 1 and at most n, and
	// the maximum accumulation equals the largest drainage basin.
	f := func(seed uint64) bool {
		size := 12
		tr := NewTerrain(size)
		field := FractalField(seed, size, 3, 4, 0.5)
		copy(tr.Elev, field)
		tr.FlowAccumulation()
		for _, a := range tr.FlowAcc {
			if a < 1 || a > float64(size*size) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateChipBandsSane(t *testing.T) {
	rng := tensor.NewRNG(3)
	chip := GenerateChip(StudyRegions[0], 1, 32, rng)
	if chip.Size != 32 || len(chip.Bands) != NumBands*32*32 {
		t.Fatalf("chip geometry: size=%d bands=%d", chip.Size, len(chip.Bands))
	}
	// DEM normalized to [0, 1]; reflectances in [0, 1]; indices in [-1, 1].
	for b := 0; b < NumBands; b++ {
		lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
		for _, v := range chip.Band(b) {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		switch b {
		case BandNDVI, BandNDWI:
			if lo < -1 || hi > 1 {
				t.Fatalf("band %s out of range [%v, %v]", BandNames[b], lo, hi)
			}
		default:
			if lo < 0 || hi > 1 {
				t.Fatalf("band %s out of range [%v, %v]", BandNames[b], lo, hi)
			}
		}
	}
}

func TestPositiveChipsHaveCrossingSignature(t *testing.T) {
	// A positive scene must contain both road and channel masks overlapping
	// near the stamped crossing; negatives must not have a crossing mask.
	rng := tensor.NewRNG(5)
	pos := BuildScene(StudyRegions[1], SceneCrossing, 48, rng)
	sumCross := 0.0
	for _, v := range pos.CrossingMask {
		sumCross += v
	}
	if sumCross < 1 {
		t.Fatalf("positive scene crossing mass %v", sumCross)
	}
	neg := BuildScene(StudyRegions[1], SceneParallel, 48, rng)
	for _, v := range neg.CrossingMask {
		if v != 0 {
			t.Fatal("negative scene has crossing mask")
		}
	}
	// Hard negative still contains both features.
	sumChan, sumRoad := 0.0, 0.0
	for i := range neg.ChannelMask {
		sumChan += neg.ChannelMask[i]
		sumRoad += neg.RoadMask[i]
	}
	if sumChan < 1 || sumRoad < 1 {
		t.Fatalf("parallel scene missing features: chan=%v road=%v", sumChan, sumRoad)
	}
}

func TestGenerateCorpusCountsMatchTable1Scaled(t *testing.T) {
	c := GenerateCorpus(CorpusOptions{ChipSize: 16, Scale: 100, Seed: 1})
	counts := c.CountByRegion()
	for _, r := range StudyRegions {
		v := counts[r.Name]
		wantT := scaledCount(r.TrueSamples, 100)
		wantF := scaledCount(r.FalseSamples, 100)
		if v[0] != wantT || v[1] != wantF {
			t.Fatalf("%s counts %v, want [%d %d]", r.Name, v, wantT, wantF)
		}
	}
	if b := c.Balance(); math.Abs(b-0.5) > 0.02 {
		t.Fatalf("corpus balance %v", b)
	}
}

func TestGenerateCorpusDeterministicAcrossParallelism(t *testing.T) {
	a := GenerateCorpus(CorpusOptions{ChipSize: 12, Scale: 400, Seed: 9})
	b := GenerateCorpus(CorpusOptions{ChipSize: 12, Scale: 400, Seed: 9})
	if len(a.Chips) != len(b.Chips) {
		t.Fatal("chip counts differ")
	}
	for i := range a.Chips {
		for j := range a.Chips[i].Bands {
			if a.Chips[i].Bands[j] != b.Chips[i].Bands[j] {
				t.Fatalf("chip %d band data differs", i)
			}
		}
	}
}

func TestTable1FullCounts(t *testing.T) {
	if TotalSamples() != 12068 {
		t.Fatalf("Table 1 total = %d, want 12068", TotalSamples())
	}
	wantTrue := map[string]int{"Nebraska": 2022, "Illinois": 1011, "North Dakota": 613, "California": 2388}
	for _, r := range StudyRegions {
		if r.TrueSamples != wantTrue[r.Name] || r.FalseSamples != r.TrueSamples {
			t.Fatalf("%s counts %d/%d", r.Name, r.TrueSamples, r.FalseSamples)
		}
	}
}

func TestRegionByName(t *testing.T) {
	if _, ok := RegionByName("Nebraska"); !ok {
		t.Fatal("Nebraska missing")
	}
	if _, ok := RegionByName("Atlantis"); ok {
		t.Fatal("unexpected region")
	}
}

func TestCorpusTensors(t *testing.T) {
	c := GenerateCorpus(CorpusOptions{ChipSize: 12, Scale: 800, Seed: 2})
	for _, ch := range []int{5, 7} {
		x, labels := c.Tensors(ch)
		if x.Dim(0) != len(c.Chips) || x.Dim(1) != ch || x.Dim(2) != 12 {
			t.Fatalf("tensor shape %v", x.Shape())
		}
		if len(labels) != len(c.Chips) {
			t.Fatal("label count mismatch")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsupported channel count")
		}
	}()
	c.Tensors(4)
}

func TestChipStats(t *testing.T) {
	rng := tensor.NewRNG(11)
	chip := GenerateChip(StudyRegions[2], 0, 24, rng)
	mean, std := chip.Stats(BandDEM)
	if mean <= 0 || mean >= 1 || std <= 0 {
		t.Fatalf("DEM stats mean=%v std=%v", mean, std)
	}
}

func TestTable1Rendering(t *testing.T) {
	c := GenerateCorpus(CorpusOptions{ChipSize: 8, Scale: 1000, Seed: 3})
	s := c.Table1(nil)
	for _, want := range []string{"Nebraska", "Illinois", "North Dakota", "California", "All"} {
		if !containsStr(s, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, s)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRegionalCharacterIsMeasurable(t *testing.T) {
	// The four study regions are parameterized differently (vegetation,
	// soil); the rendered bands must reflect it, or "regions" would be
	// cosmetic. Illinois (vegetation 0.65) must show a higher mean NDVI
	// than California (0.35) across a sample of chips.
	meanNDVI := func(region Region, seed uint64) float64 {
		sum, n := 0.0, 0
		for i := 0; i < 6; i++ {
			rng := tensor.NewRNG(seed + uint64(i)*977)
			chip := GenerateChip(region, i%2, 24, rng)
			m, _ := chip.Stats(BandNDVI)
			sum += m
			n++
		}
		return sum / float64(n)
	}
	il, _ := RegionByName("Illinois")
	ca, _ := RegionByName("California")
	ndviIL := meanNDVI(il, 100)
	ndviCA := meanNDVI(ca, 200)
	if ndviIL <= ndviCA {
		t.Fatalf("Illinois NDVI %.3f not above California %.3f", ndviIL, ndviCA)
	}
}

func TestPositiveChipsSeparableFromNegatives(t *testing.T) {
	// A crude hand-built feature — minimum DEM value along the chip's
	// horizontal midline relative to the chip mean (the culvert sag) — must
	// already carry signal, demonstrating the labels are physically grounded
	// rather than memorizable noise.
	rng := tensor.NewRNG(300)
	score := func(label int) float64 {
		chip := GenerateChip(StudyRegions[0], label, 32, rng.Split())
		dem := chip.Band(BandDEM)
		mean, _ := chip.Stats(BandDEM)
		minMid := 1.0
		for x := 8; x < 24; x++ {
			v := float64(dem[16*32+x])
			if v < minMid {
				minMid = v
			}
		}
		return mean - minMid // larger = deeper local depression
	}
	posWins := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		if score(1) > score(0) {
			posWins++
		}
	}
	if posWins < trials*6/10 {
		t.Fatalf("depression feature separates only %d/%d pairs", posWins, trials)
	}
}
