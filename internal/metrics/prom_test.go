package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestExpositionWriterBasics(t *testing.T) {
	var sb strings.Builder
	e := NewExpositionWriter(&sb)
	e.Counter("x_total", "A counter.", 3)
	e.Counter("x_total", "A counter.", 4, "kind", "b") // header only once
	e.Gauge("y", "A gauge.", 1.5, "q", `va"l\ue`)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "# TYPE x_total counter") != 1 {
		t.Fatalf("TYPE emitted wrong number of times:\n%s", out)
	}
	if !strings.Contains(out, `x_total{kind="b"} 4`) {
		t.Fatalf("labeled sample missing:\n%s", out)
	}
	if !strings.Contains(out, `q="va\"l\\ue"`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("writer output rejected: %v\n%s", err, out)
	}
}

func TestExpositionWriterHistogram(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	h.Observe(time.Millisecond)
	h.Observe(20 * time.Millisecond)

	var sb strings.Builder
	e := NewExpositionWriter(&sb)
	e.Histogram("lat_seconds", "Latency.", h.Snapshot())
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
		"lat_seconds_sum 0.022",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("histogram output rejected: %v\n%s", err, out)
	}
}

// TestWritePromRoundTrip renders a document of several snapshot families
// from their tags and requires the page to pass the validator — the same
// check make obs-smoke runs against a live servd.
func TestWritePromRoundTrip(t *testing.T) {
	serving := &ServingStats{}
	for i := 0; i < 5; i++ {
		serving.Enqueued("cnn-a")
		serving.Completed("cnn-a", time.Millisecond, 3*time.Millisecond)
	}
	serving.Enqueued("cnn-b")
	serving.Failed("cnn-b")
	serving.Enqueued("cnn-b")
	serving.Canceled("cnn-b")
	serving.Rejected("cnn-a")
	serving.BatchDone("cnn-a", 5, 2*time.Millisecond)

	sweep := &SweepStats{}
	sweep.Begin(10, 2)
	sweep.TrialDone(time.Second)
	sweep.TrialFailed(2 * time.Second)
	sweep.Retried()

	var sb strings.Builder
	e := NewExpositionWriter(&sb)
	e.Write(struct {
		Serving ServingSnapshot
		Kernel  *KernelSnapshot
		Absent  *TenantSnapshot
		Sweep   SweepSnapshot
	}{Serving: serving.Snapshot(), Kernel: &KernelSnapshot{GemmCalls: 7, TilesDispatched: 9}, Sweep: sweep.Snapshot()})
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("full page rejected: %v\n%s", err, out)
	}
	for _, want := range []string{
		`drainnas_serving_requests_total{outcome="accepted"} 7`,
		`drainnas_serving_model_requests_total{model="cnn-b",outcome="failed"} 1`,
		`drainnas_serving_model_latency_seconds_bucket{model="cnn-a",le="+Inf"} 5`,
		`drainnas_serving_latency_quantile_seconds{quantile="0.99"}`,
		"drainnas_kernel_gemm_calls_total 7",
		"drainnas_sweep_trials_succeeded_total 1",
		"drainnas_sweep_trial_seconds_count 2",
		"drainnas_sweep_trials_remaining 6",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		page string
	}{
		{"garbage line", "!!!not a metric\n"},
		{"bad value", "x 1.2.3\n"},
		{"duplicate TYPE", "# TYPE x counter\nx 1\n# TYPE x counter\n"},
		{"unknown type", "# TYPE x widget\nx 1\n"},
		{"interleaved families", "# TYPE a counter\na 1\n# TYPE b counter\nb 1\na 2\n"},
		{"TYPE after samples ended", "# TYPE a counter\na 1\n# TYPE b counter\nb 1\n# HELP a late\n"},
		{"histogram without +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"non-cumulative buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"le out of order", "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\n"},
		{"count disagrees with +Inf", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket{x=\"1\"} 1\n"},
		{"malformed label", "x{9bad=\"v\"} 1\n"},
	}
	for _, tc := range cases {
		if err := ValidateExposition(strings.NewReader(tc.page)); err == nil {
			t.Errorf("%s: accepted:\n%s", tc.name, tc.page)
		}
	}
}

func TestValidateExpositionAcceptsPerSeriesHistograms(t *testing.T) {
	// le restarts per label set within one family — per-model histograms rely
	// on this being legal.
	page := `# TYPE h histogram
h_bucket{model="a",le="1"} 1
h_bucket{model="a",le="+Inf"} 1
h_sum{model="a"} 0.5
h_count{model="a"} 1
h_bucket{model="b",le="0.5"} 2
h_bucket{model="b",le="+Inf"} 2
h_sum{model="b"} 0.2
h_count{model="b"} 2
`
	if err := ValidateExposition(strings.NewReader(page)); err != nil {
		t.Fatalf("per-series histogram rejected: %v", err)
	}
}

func TestValidateExpositionAcceptsEmptyAndComments(t *testing.T) {
	page := "\n# just a comment\n\n# TYPE ok gauge\nok 0\n"
	if err := ValidateExposition(strings.NewReader(page)); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(strings.NewReader("")); err != nil {
		t.Fatal(err)
	}
}
