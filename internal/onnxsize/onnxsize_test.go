package onnxsize

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"

	"drainnas/internal/nas"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

func narrowConfig() resnet.Config {
	return resnet.Config{Channels: 5, Batch: 8, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 32, NumClasses: 2}
}

func TestStockMemoryMatchesTable5(t *testing.T) {
	// Paper Table 5: 44.71 MB for 5-channel, 44.73 MB for 7-channel stock
	// ResNet-18. The export includes BN running stats and graph metadata,
	// so we allow a small band around the paper's values.
	mb5, err := SizeMB(resnet.StockResNet18(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if mb5 < 44.0 || mb5 > 45.5 {
		t.Fatalf("stock 5ch memory %.2f MB, want ≈44.71", mb5)
	}
	mb7, _ := SizeMB(resnet.StockResNet18(7, 8))
	if mb7 <= mb5 {
		t.Fatal("7ch model must be larger than 5ch")
	}
	if mb7-mb5 > 0.1 {
		t.Fatalf("channel delta %.3f MB, want ≈0.02", mb7-mb5)
	}
}

func TestNarrowMemoryMatchesTable4(t *testing.T) {
	// Paper Table 4: all five non-dominated models store at 11.18 MB.
	mb, err := SizeMB(narrowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if mb < 11.0 || mb > 11.6 {
		t.Fatalf("narrow model memory %.2f MB, want ≈11.18", mb)
	}
}

func TestParamCountAgreesWithBuiltModel(t *testing.T) {
	for _, cfg := range []resnet.Config{
		resnet.StockResNet18(5, 8),
		resnet.StockResNet18(7, 16),
		narrowConfig(),
	} {
		analytic, err := ParamCount(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := resnet.New(cfg, tensor.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if analytic != m.NumParams() {
			t.Fatalf("cfg %s: analytic %d != built %d", cfg.Key(), analytic, m.NumParams())
		}
	}
}

func TestEncodeSizeMatchesSizeBytes(t *testing.T) {
	cfg := narrowConfig()
	g, err := BuildGraphSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := Encode(g, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	sz, _ := SizeBytes(cfg)
	if sz != n {
		t.Fatalf("SizeBytes %d != Encode %d", sz, n)
	}
}

// TestSizeBytesMatchesExport holds SizeBytes' arithmetic to what Export
// really writes for a trained model: every 149th configuration of the
// paper's 1,728 (all three widths, both channel counts, pool on and off) and
// the stock ResNet-18. Encode, which streams zeros, must agree too.
func TestSizeBytesMatchesExport(t *testing.T) {
	cfgs := []resnet.Config{resnet.StockResNet18(5, 8), resnet.StockResNet18(7, 32)}
	all := nas.PaperSpace().EnumerateAll(nas.PaperInputCombos())
	for i := 0; i < len(all); i += 149 {
		cfgs = append(cfgs, all[i])
	}
	widths := map[int]bool{}
	for _, cfg := range cfgs {
		widths[cfg.InitialOutputFeature] = true
		want, err := SizeBytes(cfg)
		if err != nil {
			continue // one of the sweep's invalid geometries: nothing to export
		}
		m, err := resnet.New(cfg, tensor.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Export(m, io.Discard); err != nil || got != want {
			t.Fatalf("%s: Export wrote %d bytes (%v), SizeBytes says %d", cfg.Key(), got, err, want)
		}
		g, _ := BuildGraphSpec(cfg)
		if got, err := Encode(g, io.Discard); err != nil || got != want {
			t.Fatalf("%s: Encode wrote %d bytes (%v), SizeBytes says %d", cfg.Key(), got, err, want)
		}
	}
	if len(widths) != 3 {
		t.Fatalf("sample covers widths %v, want all three", widths)
	}
}

func TestExportSameSizeAsEncodeButDifferentBytes(t *testing.T) {
	cfg := narrowConfig()
	cfg.InitialOutputFeature = 32
	m, err := resnet.New(cfg, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	var trained bytes.Buffer
	n1, err := Export(m, &trained)
	if err != nil {
		t.Fatal(err)
	}
	sz, _ := SizeBytes(cfg)
	if n1 != sz {
		t.Fatalf("Export size %d != SizeBytes %d", n1, sz)
	}
	// Trained export must contain non-zero weight bytes.
	zero := true
	for _, b := range trained.Bytes()[trained.Len()/2:] {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		t.Fatal("Export payload looks all-zero")
	}
}

// writeCounter counts the Write calls an export makes; each is a syscall
// when the writer is an unbuffered file.
type writeCounter struct{ writes, bytes int64 }

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += int64(len(p))
	return len(p), nil
}

// TestExportWritesWeightsInChunks: the weights leave in 64 KiB writes, not
// four bytes at a time, so Export needs no bufio around an *os.File. The
// bound is the per-initializer header writes plus one write per chunk.
func TestExportWritesWeightsInChunks(t *testing.T) {
	m, err := resnet.New(narrowConfig(), tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	var c writeCounter
	n, err := Export(m, &c)
	if err != nil || n != c.bytes {
		t.Fatalf("Export = %d, %v; writer saw %d bytes", n, err, c.bytes)
	}
	g, err := BuildGraphSpec(m.Config)
	if err != nil {
		t.Fatal(err)
	}
	// Everything but weights is names, counts and dims: well under 16
	// small writes per node or initializer.
	bound := int64(16*(len(g.Nodes)+len(g.Initializers))) + n/(1<<16)
	if c.writes > bound {
		t.Fatalf("Export made %d writes for %d bytes, want at most %d", c.writes, n, bound)
	}
	var buf bytes.Buffer
	if _, err := Export(m, &buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		got, want := dec.Weights[p.Name], p.Data.Data()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", p.Name, len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %v, want %v", p.Name, i, got[i], want[i])
			}
		}
	}
}

func TestPoolNodeAddsBytesButNoParams(t *testing.T) {
	noPool := narrowConfig()
	withPool := noPool
	withPool.PoolChoice = 1
	withPool.KernelSizePool = 3
	withPool.StridePool = 2
	a, _ := SizeBytes(noPool)
	b, _ := SizeBytes(withPool)
	if b <= a {
		t.Fatal("MaxPool node must add graph bytes")
	}
	if b-a > 200 {
		t.Fatalf("MaxPool node added %d bytes — should be metadata only", b-a)
	}
	pa, _ := ParamCount(noPool)
	pb, _ := ParamCount(withPool)
	if pa != pb {
		t.Fatal("pooling must not change the parameter count")
	}
}

func TestMemoryMonotoneInWidth(t *testing.T) {
	prev := 0.0
	for _, f := range []int{32, 48, 64} {
		cfg := narrowConfig()
		cfg.InitialOutputFeature = f
		mb, err := SizeMB(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if mb <= prev {
			t.Fatalf("memory not monotone in width at f=%d: %.2f <= %.2f", f, mb, prev)
		}
		prev = mb
	}
}

func TestMemoryIndependentOfBatchAndStride(t *testing.T) {
	// Batch size and stem stride change no parameters — ONNX size must not
	// move (stride is a node attribute; attribute value encoding is
	// varint-stable for the 1..3 range used here).
	a := narrowConfig()
	b := a
	b.Batch = 32
	sa, _ := SizeBytes(a)
	sb, _ := SizeBytes(b)
	if sa != sb {
		t.Fatal("batch size changed serialized size")
	}
	c := a
	c.Stride = 1
	sc, _ := SizeBytes(c)
	if sa != sc {
		t.Fatal("stride changed serialized size")
	}
}

func TestKernelSizeChangesMemory(t *testing.T) {
	a := narrowConfig()
	b := a
	b.KernelSize = 7
	b.Padding = 3
	sa, _ := SizeMB(a)
	sb, _ := SizeMB(b)
	if sb <= sa {
		t.Fatal("7x7 stem must enlarge the export")
	}
}

func TestBuildGraphSpecRejectsInvalid(t *testing.T) {
	if _, err := BuildGraphSpec(resnet.Config{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestGraphSpecNodeInventory(t *testing.T) {
	g, _ := BuildGraphSpec(resnet.StockResNet18(5, 8))
	counts := map[string]int{}
	for _, n := range g.Nodes {
		counts[n.OpType]++
	}
	// 17 convs (stem + 16 block convs) + 3 downsample = 20 Conv nodes.
	if counts["Conv"] != 20 {
		t.Fatalf("Conv nodes %d, want 20", counts["Conv"])
	}
	if counts["BatchNormalization"] != 20 {
		t.Fatalf("BN nodes %d, want 20", counts["BatchNormalization"])
	}
	if counts["MaxPool"] != 1 || counts["Gemm"] != 1 || counts["GlobalAveragePool"] != 1 {
		t.Fatalf("structural nodes: %v", counts)
	}
	if counts["Add"] != 8 {
		t.Fatalf("Add nodes %d, want 8", counts["Add"])
	}
}

func TestSizePropertyDominatedByParams(t *testing.T) {
	// Property: serialized size ≈ 4 bytes/param + 8 bytes/BN channel
	// (running stats) + bounded metadata.
	f := func(sel uint8) bool {
		cfg := narrowConfig()
		cfg.InitialOutputFeature = []int{32, 48, 64}[sel%3]
		params, err := ParamCount(cfg)
		if err != nil {
			return false
		}
		sz, err := SizeBytes(cfg)
		if err != nil {
			return false
		}
		lower := int64(params * 4)
		upper := lower + int64(params) + 20000 // stats + metadata slack
		return sz > lower && sz < upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 9}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeMBUnits(t *testing.T) {
	cfg := narrowConfig()
	b, _ := SizeBytes(cfg)
	mb, _ := SizeMB(cfg)
	if math.Abs(mb-float64(b)/1e6) > 1e-12 {
		t.Fatal("SizeMB must be bytes/1e6")
	}
}

// TestSizerMatchesSizeBytes runs one Sizer over every configuration below
// in turn, so most of its layers come out of its table, and holds each size
// to a fresh SizeBytes: the paper's 1,728 configurations, the stock
// ResNet-18 and a network too wide for a table key (16,384 channels in
// stage 4).
func TestSizerMatchesSizeBytes(t *testing.T) {
	wide := narrowConfig()
	wide.InitialOutputFeature = 2048
	cfgs := append(nas.PaperSpace().EnumerateAll(nas.PaperInputCombos()), resnet.StockResNet18(7, 8), wide)
	s := NewSizer()
	for _, cfg := range cfgs {
		want, err := SizeBytes(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.SizeBytesOf(cfg, cfg.Layers()); got != want {
			t.Fatalf("%s: table-sized %d bytes, SizeBytes %d", cfg.Key(), got, want)
		}
	}
}
