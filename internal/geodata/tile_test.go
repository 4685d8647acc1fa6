package geodata

import (
	"bytes"
	"image/png"
	"math"
	"testing"

	"drainnas/internal/tensor"
)

func testTile(t *testing.T, seed uint64) *Tile {
	t.Helper()
	return GenerateTile(StudyRegions[0], 128, 3, 2, tensor.NewRNG(seed))
}

func TestGenerateTileHasCrossings(t *testing.T) {
	// With 3 near-vertical channels and 2 near-horizontal roads the
	// expected intersection count is ~6; require at least a couple.
	tile := testTile(t, 1)
	if len(tile.Crossings) < 2 {
		t.Fatalf("tile has %d crossings, want >= 2", len(tile.Crossings))
	}
	for _, c := range tile.Crossings {
		if c.X < 0 || c.X >= 128 || c.Y < 0 || c.Y >= 128 {
			t.Fatalf("crossing out of bounds: %+v", c)
		}
		// The crossing mask must carry mass near the stamp.
		if tile.Terrain.CrossingMask[c.Y*128+c.X] < 0.4 {
			t.Fatalf("weak crossing mask at %+v: %v", c, tile.Terrain.CrossingMask[c.Y*128+c.X])
		}
	}
}

func TestSegmentIntersection(t *testing.T) {
	// Crossing diagonals of the unit square meet at the center.
	x, y, ok := segmentIntersection(0, 0, 1, 1, 0, 1, 1, 0)
	if !ok || math.Abs(x-0.5) > 1e-12 || math.Abs(y-0.5) > 1e-12 {
		t.Fatalf("intersection (%v,%v,%v)", x, y, ok)
	}
	// Parallel segments do not intersect.
	if _, _, ok := segmentIntersection(0, 0, 1, 0, 0, 1, 1, 1); ok {
		t.Fatal("parallel segments intersected")
	}
	// Disjoint colinear-extended segments do not intersect.
	if _, _, ok := segmentIntersection(0, 0, 1, 1, 2, 0, 3, -1); ok {
		t.Fatal("disjoint segments intersected")
	}
}

func TestExtractChipsLabelsAndGeometry(t *testing.T) {
	tile := testTile(t, 2)
	rng := tensor.NewRNG(3)
	pos, neg := tile.ExtractChips(32, len(tile.Crossings), rng)
	if len(pos) != len(tile.Crossings) {
		t.Fatalf("positives %d, crossings %d", len(pos), len(tile.Crossings))
	}
	if len(neg) == 0 {
		t.Fatal("no negatives extracted")
	}
	for _, c := range pos {
		if c.Label != 1 || c.Size != 32 || len(c.Bands) != NumBands*32*32 {
			t.Fatalf("bad positive chip: label=%d size=%d", c.Label, c.Size)
		}
	}
	for _, c := range neg {
		if c.Label != 0 {
			t.Fatal("negative chip mislabeled")
		}
	}
}

func TestExtractedChipsCropTileBands(t *testing.T) {
	// A chip's DEM band must be an exact crop of the tile's DEM band.
	tile := testTile(t, 4)
	rng := tensor.NewRNG(5)
	pos, _ := tile.ExtractChips(32, 0, rng)
	if len(pos) == 0 {
		t.Skip("no crossings on this seed")
	}
	chip := pos[0]
	size := tile.Terrain.Size
	tileDEM := tile.Bands[:size*size]
	chipDEM := chip.Band(BandDEM)
	// Find the crop offset by matching the first row.
	found := false
	for y0 := 0; y0 <= size-32 && !found; y0++ {
		for x0 := 0; x0 <= size-32 && !found; x0++ {
			match := true
			for x := 0; x < 32; x++ {
				if tileDEM[y0*size+x0+x] != chipDEM[x] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			// Verify the full crop.
			full := true
			for y := 0; y < 32 && full; y++ {
				for x := 0; x < 32; x++ {
					if tileDEM[(y0+y)*size+x0+x] != chipDEM[y*32+x] {
						full = false
						break
					}
				}
			}
			found = full
		}
	}
	if !found {
		t.Fatal("positive chip is not a crop of the tile")
	}
}

func TestNegativesAvoidCrossings(t *testing.T) {
	tile := testTile(t, 6)
	rng := tensor.NewRNG(7)
	_, neg := tile.ExtractChips(32, 10, rng)
	// Negatives carry no crossing-mask mass at their center area. We can't
	// locate the crop, so instead assert by construction: re-run extraction
	// and check that every sampled center was >= chipSize from a crossing.
	// The public invariant testable here: negatives exist and are labeled 0
	// (geometry enforced internally); verify crossing mask sum over all of
	// the tile is concentrated (sanity of the distance rule's premise).
	if len(neg) == 0 {
		t.Fatal("no negatives")
	}
	sum := 0.0
	for _, v := range tile.Terrain.CrossingMask {
		sum += v
	}
	if sum <= 0 {
		t.Fatal("tile has no crossing mask mass")
	}
}

func TestDrainageDensityDecreasingInThreshold(t *testing.T) {
	tile := testTile(t, 8)
	d10 := tile.DrainageDensity(10)
	d100 := tile.DrainageDensity(100)
	if d10 < d100 {
		t.Fatalf("density must fall with threshold: %v vs %v", d10, d100)
	}
	if d10 <= 0 || d10 > 1 {
		t.Fatalf("density %v out of range", d10)
	}
}

func TestFlowAccumulationConcentratesOnChannels(t *testing.T) {
	// Mean flow accumulation on carved-channel cells must exceed the
	// off-channel mean: water follows the carved drainage.
	tile := testTile(t, 9)
	tr := tile.Terrain
	acc := tr.FlowAccumulation()
	var onSum, offSum float64
	var onN, offN int
	for i, m := range tr.ChannelMask {
		if m > 0.5 {
			onSum += acc[i]
			onN++
		} else if m == 0 {
			offSum += acc[i]
			offN++
		}
	}
	if onN == 0 || offN == 0 {
		t.Fatal("degenerate masks")
	}
	// Every cell counts itself, so an all-zero accumulation (which would
	// pass the ratio below) is a broken FlowAccumulation.
	if offSum <= 0 {
		t.Fatalf("off-channel accumulation sums to %v", offSum)
	}
	// D8 without pit filling fragments long flow paths, so require a 1.5x
	// concentration rather than a strict multiple.
	if onSum/float64(onN) < 1.5*offSum/float64(offN) {
		t.Fatalf("channel accumulation %.1f not concentrated vs %.1f",
			onSum/float64(onN), offSum/float64(offN))
	}
}

func TestGenerateTileDeterministic(t *testing.T) {
	a := testTile(t, 10)
	b := testTile(t, 10)
	if len(a.Crossings) != len(b.Crossings) {
		t.Fatal("crossing counts differ")
	}
	for i := range a.Bands {
		if a.Bands[i] != b.Bands[i] {
			t.Fatal("tile bands not deterministic")
		}
	}
}

func TestExtractChipsPanicsWhenChipTooBig(t *testing.T) {
	tile := testTile(t, 11)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tile.ExtractChips(128, 1, tensor.NewRNG(1))
}

func TestChipPNGProducesValidImages(t *testing.T) {
	rng := tensor.NewRNG(21)
	chip := GenerateChip(StudyRegions[3], 1, 24, rng)
	for _, mode := range []RenderMode{RenderRGB, RenderDEM, RenderNDVI, RenderNDWI, RenderFalseColor} {
		var buf bytes.Buffer
		if err := ChipPNG(chip, mode, &buf); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		img, err := png.Decode(&buf)
		if err != nil {
			t.Fatalf("mode %d: invalid PNG: %v", mode, err)
		}
		if img.Bounds().Dx() != 24 || img.Bounds().Dy() != 24 {
			t.Fatalf("mode %d: bounds %v", mode, img.Bounds())
		}
	}
	var buf bytes.Buffer
	if err := ChipPNG(chip, RenderMode(99), &buf); err == nil {
		t.Fatal("unknown mode accepted")
	}
}
