package onnxsize

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

func TestDecodeRoundTripStructure(t *testing.T) {
	cfg := narrowConfig()
	g, err := BuildGraphSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Encode(g, &buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Graph.Name != g.Name {
		t.Fatalf("name %q vs %q", dec.Graph.Name, g.Name)
	}
	if len(dec.Graph.Nodes) != len(g.Nodes) {
		t.Fatalf("nodes %d vs %d", len(dec.Graph.Nodes), len(g.Nodes))
	}
	for i := range g.Nodes {
		if dec.Graph.Nodes[i].OpType != g.Nodes[i].OpType || dec.Graph.Nodes[i].Name != g.Nodes[i].Name {
			t.Fatalf("node %d mismatch: %+v vs %+v", i, dec.Graph.Nodes[i], g.Nodes[i])
		}
		for k, v := range g.Nodes[i].Attrs {
			if dec.Graph.Nodes[i].Attrs[k] != v {
				t.Fatalf("node %d attr %s: %d vs %d", i, k, dec.Graph.Nodes[i].Attrs[k], v)
			}
		}
	}
	if len(dec.Graph.Initializers) != len(g.Initializers) {
		t.Fatalf("initializers %d vs %d", len(dec.Graph.Initializers), len(g.Initializers))
	}
}

func TestDecodeRoundTripTrainedWeights(t *testing.T) {
	cfg := narrowConfig()
	m, err := resnet.New(cfg, tensor.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Export(m, &buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Every model parameter must round-trip bit-exactly.
	for _, p := range m.Params() {
		got, ok := dec.Weights[p.Name]
		if !ok {
			t.Fatalf("parameter %s missing from decoded weights", p.Name)
		}
		want := p.Data.Data()
		if len(got) != len(want) {
			t.Fatalf("%s length %d vs %d", p.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d]: %v vs %v", p.Name, i, got[i], want[i])
			}
		}
	}
	// Running stats present too.
	if _, ok := dec.Weights["bn1.running_mean"]; !ok {
		t.Fatal("running statistics missing")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	cfg := narrowConfig()
	g, _ := BuildGraphSpec(cfg)
	var buf bytes.Buffer
	if _, err := Encode(g, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, data...)
	bad[0] ^= 0xFF
	if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not rejected: %v", err)
	}
	// Truncation.
	if _, err := Decode(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated container not rejected")
	}
	// Trailing garbage.
	if _, err := Decode(bytes.NewReader(append(append([]byte{}, data...), 0x01))); err == nil {
		t.Fatal("trailing data not rejected")
	}
	// Empty input.
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input not rejected")
	}
}

// TestDecodeRejectsHostileCounts pins that declared counts never size an
// allocation before the bytes behind them arrive: a node claiming 2^40
// attributes is refused outright, and an initializer declaring the largest
// legal payload (1 GiB) in a container that ends right after the header
// fails on the short read having allocated next to nothing.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	header := func(b []byte, vals ...uint64) []byte {
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	str := func(b []byte, s string) []byte { return append(header(b, uint64(len(s))), s...) }

	attrs := str([]byte(magic), "g")
	attrs = header(attrs, 1)
	attrs = str(str(attrs, "Conv"), "conv1")
	attrs = header(attrs, 1<<40)
	if _, err := Decode(bytes.NewReader(attrs)); err == nil || !strings.Contains(err.Error(), "attrs") {
		t.Fatalf("2^40 attributes: err %v, want an attr-count rejection", err)
	}

	payload := str([]byte(magic), "g")
	payload = header(payload, 0, 1)
	payload = str(payload, "w")
	payload = header(payload, 1, maxInitializerElems, 4*maxInitializerElems)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bytes.NewReader(payload))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("1 GiB payload with no bytes behind it decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("short payload allocated %d MiB before failing", grew>>20)
	}
}

// TestDecodeShortPayloadAllocationBounded holds the chunked payload read to
// its bound: a header claiming 2^28 elements with a few payload bytes behind
// it fails with io.ErrUnexpectedEOF having allocated no more than the
// preallocation and slack.
func TestDecodeShortPayloadAllocationBounded(t *testing.T) {
	b := binary.AppendUvarint([]byte(magic), 1)
	b = append(b, 'g')
	b = binary.AppendUvarint(b, 0) // nodes
	b = binary.AppendUvarint(b, 1) // initializers
	b = binary.AppendUvarint(b, 1)
	b = append(b, 'w')
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, maxInitializerElems)
	b = binary.AppendUvarint(b, 4*maxInitializerElems)
	b = append(b, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("2^28-element payload with 10 bytes behind it: err %v, want io.ErrUnexpectedEOF", err)
	}
	const ceiling = 4*payloadPrealloc + 1<<20
	if grew := after.TotalAlloc - before.TotalAlloc; grew > ceiling {
		t.Fatalf("short payload allocated %d bytes, ceiling %d", grew, ceiling)
	}
}

// TestDecodePayloadGrowsPastPreallocation decodes a first initializer
// larger than the preallocation, which the reader must grow into, and
// checks every value.
func TestDecodePayloadGrowsPastPreallocation(t *testing.T) {
	const numel = 2*payloadPrealloc + 3
	vals := make([]float32, numel)
	for i := range vals {
		vals[i] = float32(i) - 0.5
	}
	b := binary.AppendUvarint([]byte(magic), 1)
	b = append(b, 'g')
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 1)
	b = append(b, 'w')
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, numel)
	b = binary.AppendUvarint(b, 4*numel)
	b = tensor.AppendF32LE(b, vals)
	dec, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dec.Weights["w"], vals) {
		t.Fatal("payload grown past the preallocation decoded to different values")
	}
	if _, err := Decode(bytes.NewReader(b[:len(b)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("payload one byte short: err %v, want io.ErrUnexpectedEOF", err)
	}
}
