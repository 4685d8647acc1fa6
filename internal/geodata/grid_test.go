package geodata

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

func cellDigest(g *Grid, x, y int) [32]byte {
	return sha256.Sum256(float32Bytes(g.CellTensor(x, y, 7).Data()))
}

// TestWatershedDeterminism pins that (region, size, seed) fully determines
// the synthesized watershed: bands, crossing list, and grid truth.
func TestWatershedDeterminism(t *testing.T) {
	region, _ := RegionByName("Nebraska")
	a := GenerateWatershed(region, 128, 42)
	b := GenerateWatershed(region, 128, 42)
	if !bytes.Equal(float32Bytes(a.Bands), float32Bytes(b.Bands)) {
		t.Fatal("same seed produced different bands")
	}
	if len(a.Crossings) != len(b.Crossings) {
		t.Fatalf("crossing lists differ: %d vs %d", len(a.Crossings), len(b.Crossings))
	}
	c := GenerateWatershed(region, 128, 43)
	if bytes.Equal(float32Bytes(a.Bands), float32Bytes(c.Bands)) {
		t.Fatal("different seeds produced identical bands")
	}
}

func float32Bytes(f []float32) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, f)
	return buf.Bytes()
}

// TestGridDeterministicUnderConcurrency is the regression for scan
// reproducibility: many goroutines cropping cells in scrambled order must
// produce byte-identical chips (and identical IDs) to a sequential
// row-major walk.
func TestGridDeterministicUnderConcurrency(t *testing.T) {
	region, _ := RegionByName("Illinois")
	tile := GenerateWatershed(region, 160, 7)
	grid, err := tile.Grid(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if grid.W != 5 || grid.H != 5 || grid.Cells() != 25 {
		t.Fatalf("grid %dx%d", grid.W, grid.H)
	}

	sequential := make([][32]byte, grid.Cells())
	for y := 0; y < grid.H; y++ {
		for x := 0; x < grid.W; x++ {
			sequential[grid.ChipID(x, y)] = cellDigest(grid, x, y)
		}
	}

	for trial := 0; trial < 3; trial++ {
		concurrent := make([][32]byte, grid.Cells())
		var wg sync.WaitGroup
		// Reverse order, all cells at once: worst case for any hidden
		// visit-order dependence.
		for id := grid.Cells() - 1; id >= 0; id-- {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				x, y := id%grid.W, id/grid.W
				concurrent[id] = cellDigest(grid, x, y)
			}(id)
		}
		wg.Wait()
		for id := range sequential {
			if concurrent[id] != sequential[id] {
				t.Fatalf("trial %d: cell %d differs between sequential and concurrent crops", trial, id)
			}
		}
	}
}

// TestGridTruth checks the truth accounting: every stamped crossing inside
// some cell makes that cell positive, and a non-overlapping grid's truth
// count is bounded by the stamped crossing count.
func TestGridTruth(t *testing.T) {
	region, _ := RegionByName("California")
	tile := GenerateWatershed(region, 256, 11)
	grid, err := tile.Grid(32, 0) // stride defaults to chip size
	if err != nil {
		t.Fatal(err)
	}
	if grid.Stride != 32 {
		t.Fatalf("stride default = %d", grid.Stride)
	}
	if len(tile.Crossings) == 0 {
		t.Fatal("watershed has no crossings; scan smoke would be vacuous")
	}
	truth := grid.TruthCrossings()
	if truth == 0 {
		t.Fatal("no grid cell contains a crossing")
	}
	if truth > len(tile.Crossings) {
		t.Fatalf("truth %d exceeds stamped crossings %d on a non-overlapping grid", truth, len(tile.Crossings))
	}
	for _, c := range tile.Crossings {
		x, y := c.X/grid.Stride, c.Y/grid.Stride
		if x < grid.W && y < grid.H && !grid.CellHasCrossing(x, y) {
			t.Fatalf("crossing (%d,%d) lies in cell (%d,%d), which reports none", c.X, c.Y, x, y)
		}
	}
}

// TestChipTensor checks that a grid cell's 5- and 7-channel inputs are the
// cell's window of the tile bands, in the corpus band order.
func TestChipTensor(t *testing.T) {
	region, _ := RegionByName("Nebraska")
	tile := GenerateWatershed(region, 64, 3)
	grid, err := tile.Grid(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	size := tile.Terrain.Size
	x0, y0 := grid.CellOrigin(1, 2)
	var want []float32
	for b := 0; b < NumBands; b++ {
		for r := 0; r < 16; r++ {
			row := b*size*size + (y0+r)*size + x0
			want = append(want, tile.Bands[row:row+16]...)
		}
	}
	for _, ch := range []int{5, 7} {
		x := grid.CellTensor(1, 2, ch)
		shape := x.Shape()
		if shape[0] != 1 || shape[1] != ch || shape[2] != 16 || shape[3] != 16 {
			t.Fatalf("channels %d: shape %v", ch, shape)
		}
		if !bytes.Equal(float32Bytes(x.Data()), float32Bytes(want[:ch*16*16])) {
			t.Fatalf("channels %d: data is not the cell's band-major crop", ch)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("6 channels did not panic")
		}
	}()
	grid.CellTensor(0, 0, 6)
}

// watershedDigests hashes what a watershed hands its readers: the bands as
// little-endian float32, the elevations as little-endian float64, and the
// crossing list as little-endian int64 (X, Y) pairs.
func watershedDigests(tile *Tile) (bands, elev, crossings string) {
	hash := func(v any) string {
		var buf bytes.Buffer
		binary.Write(&buf, binary.LittleEndian, v)
		return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	xy := make([]int64, 0, 2*len(tile.Crossings))
	for _, c := range tile.Crossings {
		xy = append(xy, int64(c.X), int64(c.Y))
	}
	return hash(tile.Bands), hash(tile.Terrain.Elev), hash(xy)
}

// TestWatershedGolden pins the synthesized watershed bytes. The digests
// were captured before synthesis learned to skip work its output does not
// depend on (windowed distance fields, flow accumulation on demand,
// row-parallel noise fields); any change to them changes every scan heat
// map, so they are updated only when the watershed is meant to change.
// Nebraska 640 with seeds 1–3 are the scan benchmark's first jobs.
func TestWatershedGolden(t *testing.T) {
	type golden struct {
		region          string
		size            int
		seed            uint64
		bands, elev, xy string
	}
	cases := []golden{
		{"Nebraska", 64, 1,
			"2a61023d57e7e48abfd071b2ff351569daa62fc742d11059ebd4ca087d4d8ce4",
			"dd787f242725840a6b4f0025453a24714426faf59668326d0927e42677963e77",
			"60e45ec7e11bc056c6e2a791b689e22c902aedb3a3fcb2d1c00dfdeabe8f9e87"},
		{"Nebraska", 137, 1,
			"c6ea25c4909bca03693c64009a3b580cf03a9d36446aac2059fd4aa4d3085d4b",
			"0b207aa7204a1eeae946fadcef40e4534aa03b150479b771776298c83685ecf6",
			"68d6e066908f5c9c7560905a8622929887969fc6d431fe6b98e9b61c5ba58f3c"},
		{"Illinois", 64, 1,
			"168de79a16ae6d435827dec77f9e24c15902ab7b79cb7c9ef7198d68c11f559e",
			"20a719e3e71451a4eef5e524dd6f1b4a718ccc4eceb3c995608e49e108446308",
			"60e45ec7e11bc056c6e2a791b689e22c902aedb3a3fcb2d1c00dfdeabe8f9e87"},
		{"Illinois", 137, 1,
			"2ac3478caf1e9bdc90aca3d78e11a7eb9ca0ae95befc0d7d0d49ca6164292946",
			"beb134e2461343c2b5eff0fd39be1ca1d2aae26d7ca51c3ef8c16e4d778b8ecb",
			"68d6e066908f5c9c7560905a8622929887969fc6d431fe6b98e9b61c5ba58f3c"},
		{"North Dakota", 64, 1,
			"23689af244ec432a0dace2b1200bcff7a9e9668423ed7cc618d61bfd66407635",
			"d8322d50704b7770e60ebcf8ecd618e843a7ebdf6b0a23e5a713d888fa332751",
			"60e45ec7e11bc056c6e2a791b689e22c902aedb3a3fcb2d1c00dfdeabe8f9e87"},
		{"North Dakota", 137, 1,
			"391c3496e48ef7247170e239f7afc56d9ecad17507560d8e4c68d881173bb527",
			"9c804741c7bfad93813cb4284bc653dbf94b2258cba43bd7825e5c61a66f1597",
			"68d6e066908f5c9c7560905a8622929887969fc6d431fe6b98e9b61c5ba58f3c"},
		{"California", 64, 1,
			"24d3fc85da725c32856d1dbe89d622879efcb3852193a5430da63e6dfbacb0c2",
			"6e85d14c440997bee682a67661bf8c27dd76df4785dc70b5998f2dd28f1e103d",
			"60e45ec7e11bc056c6e2a791b689e22c902aedb3a3fcb2d1c00dfdeabe8f9e87"},
		{"California", 137, 1,
			"2df50f63bf3c060f97685e7c5553dca397f354bb46fd851e189c775ee8673751",
			"fb941d83b414bbbea7f9280d8c9c3f5793efbc0ab3b2b8c8821a0a14f2e9a78e",
			"68d6e066908f5c9c7560905a8622929887969fc6d431fe6b98e9b61c5ba58f3c"},
		{"Nebraska", 640, 1,
			"0bd9d44711abc99f6b5a7bf120edcd6ed81c0d2a4e796a436592f4af8e403070",
			"b50966804f9657b23ffa7320d930f91266185e661edf4cba3184f6e5f2e574c4",
			"2b05c970cc37812ecda4a1eb1ec92bf445a51de48f0976254ca35d3df6af1760"},
		{"Nebraska", 640, 2,
			"8af1aa3bf825f98448f23605e79bf999e883e27bb2d6d45c74ffcf17309c9e72",
			"dd879661927a5bfe13f4b5e92cd3c2cb881fb7a92d3163d07ebf9cda36567940",
			"df29b233f061b180cf62d6adbd2ff67d9ef4c565636063421b26d357902afd08"},
		{"Nebraska", 640, 3,
			"72a14409c109191fbb73f5375c1ecbc91509c66e50aa3f47007798214cc6f0e9",
			"e8e1b7ad0d578a16616c5dc221d6bb8a57046a1a037d429117be179e116489e6",
			"26425674e287853af256557c7d9bb6095c248b74e3a53dc66dc4600127467879"},
	}
	for _, c := range cases {
		region, ok := RegionByName(c.region)
		if !ok {
			t.Fatalf("unknown region %q", c.region)
		}
		bands, elev, xy := watershedDigests(GenerateWatershed(region, c.size, c.seed))
		if bands != c.bands || elev != c.elev || xy != c.xy {
			t.Errorf("%s %d seed %d: digests\n\t{%q, %d, %d, %q, %q, %q},\nwant bands %s elev %s crossings %s",
				c.region, c.size, c.seed, c.region, c.size, c.seed, bands, elev, xy, c.bands, c.elev, c.xy)
		}
	}
}
