// Command benchjson turns `go test -bench` text (read from stdin) into a
// JSON benchmark trajectory. Each invocation appends one run record — with
// timestamp, toolchain, CPU model, GOMAXPROCS, the active GEMM kernel, and
// every parsed benchmark's ns/op plus custom metrics (gflops, MB/s, ...) —
// to the `runs` array of the output file, so the checked-in file accumulates
// the performance history across commits instead of overwriting it.
//
// Usage:
//
//	go test -run='^$' -bench . ./internal/tensor | go run ./cmd/benchjson -out BENCH_kernels.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"drainnas/internal/tensor"
)

type benchResult struct {
	Name    string             `json:"name"`
	Pkg     string             `json:"pkg,omitempty"`
	Iters   int64              `json:"iterations"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type run struct {
	Timestamp  string        `json:"timestamp"`
	GoVersion  string        `json:"go"`
	CPU        string        `json:"cpu,omitempty"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	GemmKernel string        `json:"gemm_kernel"`
	Note       string        `json:"note,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// trajectory holds the earlier runs as raw JSON, so appending a run leaves
// their bytes as they were written.
type trajectory struct {
	Runs []json.RawMessage `json:"runs"`
}

func main() {
	out := flag.String("out", "BENCH_kernels.json", "trajectory file to append the run to")
	note := flag.String("note", "", "free-form label stored with the run")
	kernel := flag.String("kernel", "", "override the recorded GEMM kernel name (for replaying output captured from another build)")
	flag.Parse()

	rec := run{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GemmKernel: tensor.GemmKernelName(),
		Note:       *note,
	}
	if *kernel != "" {
		rec.GemmKernel = *kernel
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the raw output through for the operator
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rec.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if br, ok := parseBenchLine(line, pkg); ok {
				rec.Benchmarks = append(rec.Benchmarks, br)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("reading stdin: %v", err)
	}
	if len(rec.Benchmarks) == 0 {
		fatalf("no benchmark lines found on stdin")
	}

	raw, err := os.ReadFile(*out)
	if err != nil && !os.IsNotExist(err) {
		fatalf("reading %s: %v", *out, err)
	}
	enc, n, err := appendRun(raw, rec)
	if err != nil {
		fatalf("existing %s: %v", *out, err)
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatalf("writing %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: recorded %d benchmarks as run %d of %s\n",
		len(rec.Benchmarks), n, *out)
}

// appendRun adds rec to the trajectory file contents raw (empty for a new
// file) and returns the new contents and the run count. It writes without
// HTML escaping, so earlier runs keep their bytes: a "->" in a note stays
// "->" and a note stored as "-\u003e" stays that way.
func appendRun(raw []byte, rec run) ([]byte, int, error) {
	var traj trajectory
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &traj); err != nil {
			return nil, 0, fmt.Errorf("not a trajectory file: %v", err)
		}
	}
	r, err := encode(rec)
	if err != nil {
		return nil, 0, err
	}
	traj.Runs = append(traj.Runs, r)
	enc, err := encode(&traj)
	return enc, len(traj.Runs), err
}

// encode writes v as indented JSON without HTML escaping.
func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// parseBenchLine decodes one testing.B result line:
//
//	BenchmarkMM512-4   100   4961234 ns/op   423.5 MB/s   54.04 gflops
//
// The name keeps sub-benchmark paths and drops the Benchmark prefix and the
// -GOMAXPROCS suffix; every trailing value/unit pair lands in Metrics except
// ns/op, which is promoted to its own field.
func parseBenchLine(line, pkg string) (benchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return benchResult{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	br := benchResult{Name: name, Pkg: pkg, Iters: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		if f[i+1] == "ns/op" {
			br.NsPerOp = val
			continue
		}
		if br.Metrics == nil {
			br.Metrics = map[string]float64{}
		}
		br.Metrics[f[i+1]] = val
	}
	return br, true
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
