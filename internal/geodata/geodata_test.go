package geodata

import (
	"fmt"
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

// At evaluates the noise field at a continuous coordinate, in [0, 1): the
// point formula FractalField evaluates from cached lattice rows.
func (v valueNoise) At(x, y float64) float64 {
	x0 := math.Floor(x)
	y0 := math.Floor(y)
	tx := smoothstep(x - x0)
	ty := smoothstep(y - y0)
	ix, iy := int64(x0), int64(y0)
	v00 := v.hash2(ix, iy)
	v10 := v.hash2(ix+1, iy)
	v01 := v.hash2(ix, iy+1)
	v11 := v.hash2(ix+1, iy+1)
	top := v00 + (v10-v00)*tx
	bot := v01 + (v11-v01)*tx
	return top + (bot-top)*ty
}

// pointFractalField is FractalField evaluated cell by cell from At: the
// oracle for the cached lattice rows.
func pointFractalField(seed uint64, size int, baseFreq float64, octaves int, persistence float64) []float64 {
	n := valueNoise{seed: seed}
	out := make([]float64, size*size)
	inv := baseFreq / float64(size)
	for y := 0; y < size; y++ {
		fy := float64(y) * inv
		for x := 0; x < size; x++ {
			sum, amp, norm, freq := 0.0, 1.0, 0.0, 1.0
			for o := 0; o < octaves; o++ {
				sum += amp * n.At(float64(x)*inv*freq, fy*freq)
				norm += amp
				amp *= persistence
				freq *= 2
			}
			if norm != 0 {
				out[y*size+x] = sum / norm
			}
		}
	}
	return out
}

// TestFractalFieldMatchesPointNoise holds FractalField's row-parallel
// evaluation bit for bit to the point formula, for the base frequencies,
// octaves and persistences synthesis uses.
func TestFractalFieldMatchesPointNoise(t *testing.T) {
	for _, size := range []int{1, 17, 64, 129, 301} {
		for _, p := range []struct {
			freq        float64
			octaves     int
			persistence float64
		}{{4, 6, 0.45}, {3, 5, 0.7}, {5, 3, 0.5}, {6, 3, 0.5}, {2.5, 0, 0.5}} {
			seed := uint64(size)*31 + uint64(p.octaves)
			got := FractalField(seed, size, p.freq, p.octaves, p.persistence)
			want := pointFractalField(seed, size, p.freq, p.octaves, p.persistence)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("size %d %+v: cell %d = %v, point formula %v", size, p, i, got[i], want[i])
				}
			}
		}
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

// fullDistanceField is the exhaustive sweep the windowed rows replaced:
// every cell's distance to every segment, kept here as the oracle.
func fullDistanceField(size int, line polyline) []float64 {
	out := make([]float64, size*size)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			best := math.Inf(1)
			for s := 0; s+1 < len(line); s++ {
				d := distanceToSegment(float64(x), float64(y), line[s].X, line[s].Y, line[s+1].X, line[s+1].Y)
				if d < best {
					best = d
				}
			}
			out[y*size+x] = best
		}
	}
	return out
}

// rowDistanceField is the distance field alongLine hands CarveChannel and
// RaiseRoad, row band by row band: +Inf wherever it makes no call.
func rowDistanceField(tr *Terrain, line polyline, reach float64) []float64 {
	out := make([]float64, tr.Size*tr.Size)
	for i := range out {
		out[i] = math.Inf(1)
	}
	tr.alongLine(line, reach, func(i int, d float64) { out[i] = d })
	return out
}

// TestDistanceFieldWindowExact holds the windowed row distances to the
// exhaustive sweep wherever CarveChannel or RaiseRoad would act on a cell:
// there the distance is identical, and everywhere else both give a weight
// below the 1e-4 cut-off. Lines are the generators' own meanders and roads,
// free and pinned to a crossing at or past the raster edge (so the
// generators' clamps hold whole stretches of the line on the border), plus
// hand-made lines that leave the raster.
func TestDistanceFieldWindowExact(t *testing.T) {
	rng := tensor.NewRNG(29)
	type profile struct {
		name   string
		reach  float64
		weight func(d float64) float64
	}
	var profiles []profile
	for _, sigma := range []float64{1.2, 2.5} {
		profiles = append(profiles, profile{
			name:   fmt.Sprintf("channel σ=%v", sigma),
			reach:  channelReach(sigma),
			weight: func(d float64) float64 { return gaussian(d, sigma) },
		})
	}
	for _, crown := range []float64{1.5, 2.5} {
		for _, shoulder := range []float64{1.5, 3} {
			profiles = append(profiles, profile{
				name:   fmt.Sprintf("road crown=%v shoulder=%v", crown, shoulder),
				reach:  roadReach(crown, shoulder),
				weight: func(d float64) float64 { return roadWeight(d, crown, shoulder) },
			})
		}
	}

	for _, size := range []int{17, 64, 137} {
		edge := float64(size - 1)
		var lines []polyline
		for i := 0; i < 4; i++ {
			lines = append(lines, meander(rng, size, 0, 0, false), straightRoad(rng, size, 0, 0, false))
		}
		for _, at := range [][2]float64{{0, 0}, {edge, edge}, {-5, edge / 2}, {edge + 5, edge / 2}} {
			lines = append(lines, meander(rng, size, at[0], at[1], true), straightRoad(rng, size, at[0], at[1], true))
		}
		lines = append(lines,
			polyline{{X: -8, Y: -3}, {X: edge + 6, Y: edge + 9}},
			polyline{{X: edge / 3, Y: -20}, {X: edge / 3, Y: -1}},
			polyline{{X: 2, Y: 2}, {X: 2, Y: 2}},
		)
		tr := NewTerrain(size)
		for li, line := range lines {
			oracle := fullDistanceField(size, line)
			for _, p := range profiles {
				got := rowDistanceField(tr, line, p.reach)
				for i, want := range oracle {
					if p.weight(want) >= 1e-4 {
						if got[i] != want {
							t.Fatalf("size %d line %d %s: cell %d distance %v, sweep %v", size, li, p.name, i, got[i], want)
						}
					} else if w := p.weight(got[i]); w >= 1e-4 {
						t.Fatalf("size %d line %d %s: cell %d weight %v where the sweep's is below 1e-4", size, li, p.name, i, w)
					}
				}
			}
		}
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
	acc := tr.FlowAccumulation()
	// Low-edge cells accumulate their entire row.
	for y := 0; y < size; y++ {
		if got := acc[y*size]; got != float64(size) {
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
		acc := tr.FlowAccumulation()
		if len(acc) != size*size {
			return false
		}
		for _, a := range acc {
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
	s := c.Table1()
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
		// Each chip's generator is derived from rng the way tensor's
		// test-only RNG.Split derives one, so the scored pairs are unchanged.
		chip := GenerateChip(StudyRegions[0], label, 32, tensor.NewRNG(rng.Uint64()^0xD1B54A32D192ED03))
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
