package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"drainnas/internal/metrics"
	"drainnas/internal/tensor"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.95, 38.5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("empty or single-element input mishandled")
	}
}

func TestQuietQuartile(t *testing.T) {
	rates := []float64{10, 30, 20, 40, 50} // sorted: 10 20 30 40 50
	if got := quiet(rates, higherIsBetter); !near(got, 40) {
		t.Errorf("quiet(higher) = %v, want the upper quartile 40", got)
	}
	if got := quiet(rates, lowerIsBetter); !near(got, 20) {
		t.Errorf("quiet(lower) = %v, want the lower quartile 20", got)
	}
}

func TestWindowRates(t *testing.T) {
	// Four events in the first second, two in the second, one beyond the
	// phase (ignored), windows of one second.
	events := []time.Duration{100, 200, 300, 999, 1000, 1500, 2500}
	for i := range events {
		events[i] *= time.Millisecond
	}
	got := windowRates(events, 2*time.Second, time.Second)
	if len(got) != 2 || !near(got[0], 4) || !near(got[1], 2) {
		t.Errorf("windowRates = %v, want [4 2]", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{10, 110}
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"none", nil, 100},
		{"one", []interval{{20, 50}}, 70},
		{"disjoint", []interval{{20, 30}, {60, 100}}, 50},
		{"overlapping counted once", []interval{{20, 60}, {40, 80}}, 40},
		{"clipped to the parent", []interval{{0, 20}, {100, 200}}, 80},
		{"covering", []interval{{0, 200}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTraceSummary(t *testing.T) {
	// One request: root 0–100, child a 10–60 with grandchild b 20–40,
	// child a 70–90. A second root of another name is not counted.
	spans := []span{
		{ID: 1, Op: 1, Name: "request", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10e6, End: 60e6},
		{ID: 3, Parent: 2, Op: 1, Name: "b", Start: 20e6, End: 40e6},
		{ID: 4, Parent: 1, Op: 1, Name: "a", Start: 70e6, End: 90e6},
		{ID: 5, Op: 5, Name: "other", Start: 0, End: 500e6},
	}
	ts := summarizeTrace(spans, "request")
	if len(ts.rootMS) != 1 || !near(ts.rootMS[0], 100) {
		t.Fatalf("rootMS = %v", ts.rootMS)
	}
	for name, want := range map[string]float64{"request": 30, "a": 50, "b": 20} {
		if got := ts.selfMS[name]; len(got) != 1 || !near(got[0], want) {
			t.Errorf("selfMS[%s] = %v, want [%v]", name, got, want)
		}
	}
	if _, ok := ts.selfMS["other"]; ok {
		t.Error("an operation under another root was counted")
	}
	if got := ts.selfSumShare(); !near(got, 1) {
		t.Errorf("selfSumShare = %v, want 1: self times partition the root", got)
	}
}

func TestHistDeltaAndMerge(t *testing.T) {
	var h metrics.Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	before := h.Snapshot()
	for i := 0; i < 10; i++ {
		h.Observe(40 * time.Millisecond)
	}
	after := h.Snapshot()
	d := histDelta(before, after)
	if d.Count != 10 {
		t.Fatalf("delta count %d, want 10", d.Count)
	}
	if p50 := histP50MS(before, after); p50 < 25 || p50 > 45 {
		t.Errorf("delta p50 %.2f ms: the 100 earlier 1 ms observations leaked in", p50)
	}
	m := histMerge(before, d)
	if m.Count != 110 || len(m.Buckets) != 2 || m.Buckets[0].Upper > m.Buckets[1].Upper {
		t.Errorf("merge = %+v", m)
	}
}

func TestArrivals(t *testing.T) {
	const n = 50
	phase := 5 * time.Second
	a := arrivals(tensor.NewRNG(3), n, phase)
	b := arrivals(tensor.NewRNG(3), n, phase)
	c := arrivals(tensor.NewRNG(4), n, phase)
	if len(a) != n {
		t.Fatalf("%d arrivals, want %d", len(a), n)
	}
	same, differs := true, false
	slot := phase / n
	for i := range a {
		same = same && a[i] == b[i]
		differs = differs || a[i] != c[i]
		lo, hi := time.Duration(i)*slot+slot/4, time.Duration(i+1)*slot-slot/4
		if a[i] < lo || a[i] > hi {
			t.Errorf("arrival %d at %v, outside the middle half of its slot [%v, %v]", i, a[i], lo, hi)
		}
	}
	if !same || !differs {
		t.Error("the schedule must be a function of the seed, and only of it")
	}
}

// slowTarget answers every request after a fixed service time and fails
// the ops whose chip is negative.
type slowTarget struct {
	service time.Duration
	mu      sync.Mutex
	inUse   int
	peak    int
}

func (s *slowTarget) send(context.Context, int, op) (int, []byte, error) {
	s.mu.Lock()
	s.inUse++
	s.peak = max(s.peak, s.inUse)
	s.mu.Unlock()
	time.Sleep(s.service)
	s.mu.Lock()
	s.inUse--
	s.mu.Unlock()
	return 200, nil, nil
}

func (s *slowTarget) check(o op, _ int, _ []byte) error {
	if o.chip < 0 {
		return errNotSent
	}
	return nil
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// Three requests due together, one sender, 30 ms of service each: the
	// sender can only start them back to back, so the third leaves ~60 ms
	// late and its latency, counted from when it was due, is ~90 ms — not
	// the 30 ms a clock started at send time would claim.
	tgt := &slowTarget{service: 30 * time.Millisecond}
	due := []time.Duration{0, 0, 0}
	samples := openLoop(context.Background(), tgt, 1, due, []op{{}, {}, {chip: -1}})
	s := summarize(samples)
	if s.sent != 3 || s.ok != 2 || s.failed != 1 || s.firstErr == nil {
		t.Fatalf("sent/ok/failed = %d/%d/%d, firstErr %v", s.sent, s.ok, s.failed, s.firstErr)
	}
	if got := s.latencyMS[2]; got < 85 || got > 200 {
		t.Errorf("third request's latency %.1f ms, want about 90 (from its due time)", got)
	}
	if got := s.latenessMS[2]; got < 55 || got > 170 {
		t.Errorf("third request's lateness %.1f ms, want about 60", got)
	}
	if s.withinSLO != 2 {
		t.Errorf("withinSLO = %d: a failed request must count as a miss", s.withinSLO)
	}
	if tgt.peak != 1 {
		t.Errorf("one sender had %d requests in flight", tgt.peak)
	}

	// With a sender each, nothing waits.
	samples = openLoop(context.Background(), &slowTarget{service: 30 * time.Millisecond}, 3, due, []op{{}, {}, {}})
	if late := percentile(summarize(samples).latenessMS, 1); late > 25 {
		t.Errorf("three senders for three requests still ran %.1f ms late", late)
	}
}

func TestClosedLoopWaitsForReplies(t *testing.T) {
	tgt := &slowTarget{service: 20 * time.Millisecond}
	samples := closedLoop(context.Background(), tgt, 2, 200*time.Millisecond, 1, func(*tensor.RNG) op { return op{} })
	if tgt.peak != 2 {
		t.Errorf("two clients had %d requests in flight at the peak", tgt.peak)
	}
	if n := len(samples); n < 10 || n > 22 {
		t.Errorf("%d samples from two clients at 20 ms a reply over 200 ms", n)
	}
}

func TestGuardVoidsALateGenerator(t *testing.T) {
	s := loadSummary{sent: 100, latenessMS: make([]float64, 100)}
	if err := s.guard(time.Second); err != nil {
		t.Errorf("a punctual generator was voided: %v", err)
	}
	for i := range s.latenessMS {
		s.latenessMS[i] = 30
	}
	if s.guard(time.Second) == nil {
		t.Error("a generator 30 ms late on every request was not voided")
	}
	s = loadSummary{sent: 3, latenessMS: make([]float64, 3)}
	if s.guard(10*time.Second) == nil {
		t.Error("a 10 s phase with 3 samples was not voided")
	}
}

func TestReportRejectsUnknownAndDuplicateMetrics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	rep := newReport(endToEnd)
	rep.set("setup_s", 1)
	mustPanic("an undeclared metric", func() { rep.set("latency_p51_ms", 1) })
	mustPanic("a metric set twice", func() { rep.set("setup_s", 2) })
	if _, err := rep.finish(true); err == nil {
		t.Error("an end-to-end report with unmeasured metrics finished without error")
	}
}

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name() || b.Workloads[i].Why == "" {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, b.Workloads[i].Name, w.name())
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer", len(b.EndToEnd), len(endToEnd), len(b.PerLayer), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := b.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v against %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := b.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: %+v against %+v", i, m, d)
		}
	}
}

func testEnv(t *testing.T) *env {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and boots the real binaries")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	binDir, err := buildBinaries(root)
	if err != nil {
		t.Fatal(err)
	}
	return &env{root: root, binDir: binDir, seed: 1}
}

// TestBenchQuick runs every workload for a second, untraced and traced, with
// every correctness check on, and requires every metric BENCHMARK.json
// declares exactly once with a finite value.
func TestBenchQuick(t *testing.T) {
	e := testEnv(t)
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(e, w, time.Second, traced, 1)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name(), traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %+v", w.name(), traced, res)
			}
			want := map[string]string{}
			if traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name(), traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.name(), traced, name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name(), name, m.Value)
				}
			}
		}
	}
}

// TestCorruptedReferenceFailsTheRun feeds the predict check a reference
// that is wrong: every answer must then count as failed, which is what
// makes the command exit non-zero.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	e := testEnv(t)
	inst, err := predictWorkload{}.setup(e)
	if err != nil {
		t.Fatal(err)
	}
	r := inst.(*predictRun)
	for _, perChip := range r.refs.logits {
		for _, logits := range perChip {
			logits[0] += 1
		}
	}
	c, err := r.measure(time.Second, newReport(endToEnd))
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	if c.failed != c.attempted || c.attempted == 0 || c.firstErr == nil {
		t.Errorf("attempted %d, failed %d, first error %v: a wrong answer must fail", c.attempted, c.failed, c.firstErr)
	}
	if err := r.close(); err != nil {
		t.Errorf("close: %v", err)
	}
}
