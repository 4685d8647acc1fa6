package main

import (
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	br, ok := parseBenchLine(
		"BenchmarkMM512-4   \t     100\t   4961234 ns/op\t 423.50 MB/s\t  54.04 gflops",
		"drainnas/internal/tensor")
	if !ok {
		t.Fatal("line not parsed")
	}
	if br.Name != "MM512" || br.Pkg != "drainnas/internal/tensor" || br.Iters != 100 {
		t.Fatalf("header fields: %+v", br)
	}
	if br.NsPerOp != 4961234 {
		t.Fatalf("ns/op = %g", br.NsPerOp)
	}
	if br.Metrics["MB/s"] != 423.5 || br.Metrics["gflops"] != 54.04 {
		t.Fatalf("metrics: %v", br.Metrics)
	}
}

func TestParseBenchLineSubBench(t *testing.T) {
	br, ok := parseBenchLine(
		"BenchmarkAblation_ConvParallelism/batch1-1 \t 792\t 1500000 ns/op\t 25.13 gflops", "")
	if !ok {
		t.Fatal("line not parsed")
	}
	if br.Name != "Ablation_ConvParallelism/batch1" {
		t.Fatalf("name = %q", br.Name)
	}
	if br.Metrics["gflops"] != 25.13 {
		t.Fatalf("metrics: %v", br.Metrics)
	}
}

func TestParseBenchLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkBroken",
		"BenchmarkBroken-1 notanint 12 ns/op",
		"BenchmarkBroken-1 10 twelve ns/op",
	} {
		if _, ok := parseBenchLine(line, ""); ok {
			t.Fatalf("parsed garbage line %q", line)
		}
	}
}

func TestAppendRunKeepsEarlierRuns(t *testing.T) {
	rec := run{GoVersion: "go1", GemmKernel: "k", Note: "a -> b", Benchmarks: []benchResult{{Name: "X", Iters: 1, NsPerOp: 2}}}
	first, n, err := appendRun(nil, rec)
	if err != nil || n != 1 {
		t.Fatalf("new file: n=%d err=%v", n, err)
	}
	if !strings.Contains(string(first), `"note": "a -> b"`) {
		t.Fatalf("note escaped:\n%s", first)
	}
	// An earlier run stored with an escaped '>' keeps its bytes.
	old := strings.Replace(string(first), "a -> b", `a -\u003e b`, 1)
	second, n, err := appendRun([]byte(old), rec)
	if err != nil || n != 2 {
		t.Fatalf("append: n=%d err=%v", n, err)
	}
	head := strings.TrimSuffix(old, "\n  ]\n}\n")
	if !strings.HasPrefix(string(second), head) {
		t.Fatalf("earlier run rewritten:\n%s\nwant prefix:\n%s", second, head)
	}
	if _, _, err := appendRun([]byte("[]"), rec); err == nil {
		t.Fatal("a JSON array was accepted as a trajectory")
	}
}
