package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"drainnas/internal/fronttest"
	"drainnas/internal/metrics"
)

func capsim(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("capsim %v: %v\n%s", args, err, errb.String())
	}
	return out.String()
}

// TestCapsimDeterministic is the CLI-level acceptance property: identical
// invocations print identical bytes, and a different seed prints different
// ones.
func TestCapsimDeterministic(t *testing.T) {
	args := []string{"-seed", "9", "-rate", "150", "-duration", "1s",
		"-replicas", "2", "-sched", "priority", "-slo", "interactive=0.5,batch=0.5",
		"-max-inflight", "32", "-admit-rate", "400"}
	a := capsim(t, args...)
	b := capsim(t, args...)
	if a != b {
		t.Fatalf("same invocation printed different bytes:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	c := capsim(t, append(args[2:], "-seed", "10")...)
	if a == c {
		t.Fatal("different seeds printed identical reports")
	}
	if !strings.Contains(a, "model paper@int8") || !strings.Contains(a, "class interactive") {
		t.Fatalf("report missing per-model/per-class sections:\n%s", a)
	}

	// JSON mode is deterministic too and decodes.
	ja := capsim(t, append(args, "-json")...)
	if jb := capsim(t, append(args, "-json")...); ja != jb {
		t.Fatal("JSON output not deterministic")
	}
	var rep struct {
		Completed uint64 `json:"completed"`
	}
	if err := json.Unmarshal([]byte(ja), &rep); err != nil || rep.Completed == 0 {
		t.Fatalf("JSON report malformed (%v): %s", err, ja)
	}
}

// TestCapsimSweepFrontier checks the capacity question end to end: the
// sweep prints one line per fleet size, p99 does not degrade as replicas
// are added, and the verdict names the smallest size meeting the target.
func TestCapsimSweepFrontier(t *testing.T) {
	out := capsim(t, "-seed", "3", "-rate", "120", "-duration", "1s",
		"-device", "adreno640gpu", "-mix", "paper@int8=1",
		"-sweep", "replicas=1..6", "-target-p99", "500ms")
	if !strings.Contains(out, "capacity frontier") {
		t.Fatalf("missing frontier header:\n%s", out)
	}
	lines := 0
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "1 ") || strings.HasPrefix(l, "2 ") ||
			strings.HasPrefix(l, "3 ") || strings.HasPrefix(l, "4 ") ||
			strings.HasPrefix(l, "5 ") || strings.HasPrefix(l, "6 ") {
			lines++
		}
	}
	if lines != 6 {
		t.Fatalf("frontier printed %d rows, want 6:\n%s", lines, out)
	}
	if !strings.Contains(out, "verdict:") {
		t.Fatalf("missing verdict:\n%s", out)
	}

	// The JSON frontier carries the same answer machine-readably.
	jout := capsim(t, "-seed", "3", "-rate", "120", "-duration", "1s",
		"-device", "adreno640gpu", "-mix", "paper@int8=1",
		"-sweep", "replicas=1..6", "-target-p99", "500ms", "-json")
	var doc struct {
		Frontier []struct {
			Replicas int     `json:"replicas"`
			P99MS    float64 `json:"p99_ms"`
			Goodput  float64 `json:"goodput"`
		} `json:"frontier"`
		Verdict int `json:"verdict_replicas"`
	}
	if err := json.Unmarshal([]byte(jout), &doc); err != nil {
		t.Fatalf("sweep JSON: %v", err)
	}
	if len(doc.Frontier) != 6 {
		t.Fatalf("JSON frontier has %d rows, want 6", len(doc.Frontier))
	}
	// Larger fleets must not be slower at the tail (monotone frontier).
	for i := 1; i < len(doc.Frontier); i++ {
		if doc.Frontier[i].P99MS > doc.Frontier[i-1].P99MS*1.001 {
			t.Fatalf("frontier p99 degraded from %.2f to %.2f at %d replicas",
				doc.Frontier[i-1].P99MS, doc.Frontier[i].P99MS, doc.Frontier[i].Replicas)
		}
	}
	if doc.Verdict > 0 {
		for _, row := range doc.Frontier {
			if row.Replicas == doc.Verdict && row.P99MS > 500 {
				t.Fatalf("verdict %d replicas has p99 %.2fms over the 500ms target", doc.Verdict, row.P99MS)
			}
			if row.Replicas < doc.Verdict && row.P99MS <= 500 && row.Goodput >= 0.999 {
				t.Fatalf("verdict %d is not the smallest passing size (%d also passes)", doc.Verdict, row.Replicas)
			}
		}
	}
}

// TestCapsimRecordReplay checks -record then -trace reproduces the exact
// generated workload: the replayed report equals the directly simulated one.
func TestCapsimRecordReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "wl.jsonl")
	rec := capsim(t, "-seed", "21", "-rate", "100", "-duration", "1s", "-record", trace)
	if !strings.Contains(rec, "recorded") {
		t.Fatalf("record mode output: %s", rec)
	}

	direct := capsim(t, "-seed", "21", "-rate", "100", "-duration", "1s", "-replicas", "2")
	replayed := capsim(t, "-trace", trace, "-duration", "1s", "-replicas", "2")
	// The replay banner differs; the report body must not.
	body := func(s string) string {
		i := strings.Index(s, "simulated ")
		if i < 0 {
			t.Fatalf("no report in output:\n%s", s)
		}
		return s[i:]
	}
	if body(direct) != body(replayed) {
		t.Fatalf("replayed report differs from direct:\n--- direct ---\n%s--- replay ---\n%s",
			body(direct), body(replayed))
	}
}

// TestCapsimCalibrateFlag runs the calibration path against the sim
// package's checked-in fixture and checks the fitted scales are reported
// and applied.
func TestCapsimCalibrateFlag(t *testing.T) {
	out := capsim(t,
		"-trace", "../../internal/sim/testdata/fixture_trace.jsonl",
		"-calibrate", "../../internal/sim/testdata/fixture_stats.json",
		"-duration", "4s", "-replicas", "2",
		// The fixture was produced by hand-written service models, not the
		// built-in cost graphs; scales absorb the difference. What matters
		// here is the wiring: fit, report, then simulate.
	)
	if !strings.Contains(out, "calibration: work-scale") ||
		!strings.Contains(out, "MAPE") || !strings.Contains(out, "pearson r") {
		t.Fatalf("calibration report missing:\n%s", out)
	}
	if !strings.Contains(out, "simulated ") {
		t.Fatalf("no simulation after calibration:\n%s", out)
	}
}

// TestCapsimFlagErrors checks the CLI rejects malformed inputs with
// actionable errors instead of simulating garbage.
func TestCapsimFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-chip", "5x128"},
		{"-chip", "5x128x0"},
		{"-mix", "paper"},
		{"-mix", ""},
		{"-slo", "urgent=1"},
		{"-dist", "zipf"},
		{"-sweep", "replicas=8..1"},
		{"-sweep", "workers=1..4"},
		{"-sweep", "replicas=1..200"},
		{"-sched", "wfq"},
		{"-policy", "random"},
		{"-mix", "ghost=1"}, // not in the built-in model set
		{"-trace", "does-not-exist.jsonl"},
		{"-device", "tpu9000"},
	}
	for _, args := range cases {
		full := append([]string{"-duration", "200ms", "-rate", "50"}, args...)
		if err := run(full, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

// TestCapsimModelDirCompilesEachContainerOnce: pricing a model directory
// needs one compiled plan per container — the "@int8" key is the same cost
// graph at latmeter's int8 scale, not a second load plus a calibration run.
func TestCapsimModelDirCompilesEachContainerOnce(t *testing.T) {
	dir := t.TempDir()
	fronttest.WriteModels(t, dir)
	before := metrics.Infer.Snapshot().PlanCompiles
	out := capsim(t, "-models", dir, "-chip", "3x32x32", "-mix", "tiny=1,wide@int8=1",
		"-seed", "2", "-rate", "80", "-duration", "500ms")
	if got := metrics.Infer.Snapshot().PlanCompiles - before; got != 3 {
		t.Errorf("pricing 3 containers compiled %d plans", got)
	}
	if !strings.Contains(out, "model tiny ") || !strings.Contains(out, "model wide@int8") {
		t.Fatalf("report misses a priced model:\n%s", out)
	}
}
