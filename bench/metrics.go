package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef declares one metric of BENCHMARK.json. The Go tables below and
// the JSON file must agree; bench_test.go checks that they do.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"setup_s", "s"},
}

// perLayer is what the traced run reports. A layer that does not run in a
// workload reports 0 there.
var perLayer = []metricDef{
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.lateness_p95_ms", "ms"},
	{"loadgen.latency_p95_ms", "ms"},
	{"loadgen.latency_p99_ms", "ms"},
	{"loadgen.slo_share", "ratio"},

	{"api.request_bytes", "bytes"},
	{"api.decode_ms", "ms"},
	{"api.encode_req_ms", "ms"},
	{"api.encode_resp_ms", "ms"},

	{"tenant.wrap_self_ms", "ms"},
	{"tenant.queue_wait_p50_ms", "ms"},
	{"tenant.quota_exceeded", "count"},

	{"route.submit_self_ms", "ms"},
	{"route.http_replica_self_ms", "ms"},
	{"route.decide_p50_ms", "ms"},
	{"route.gate_wait_p50_ms", "ms"},
	{"route.hedges", "count"},
	{"route.retries", "count"},

	{"router.cpu_ms_per_req", "ms"},
	{"router.peak_rss_mb", "MB"},

	{"servd.cpu_ms_per_req", "ms"},
	{"servd.cpu_ms_per_tile", "ms"},
	{"servd.peak_rss_mb", "MB"},

	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.exec_p50_ms", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.batches", "count"},
	{"serve.rejected", "count"},
	{"serve.cache_hit_share", "ratio"},

	{"infer.load_plan_ms", "ms"},
	{"infer.quantize_ms", "ms"},
	{"infer.forward_b1_ms", "ms"},
	{"infer.forward_b8_ms_per_sample", "ms"},
	{"infer.forward_int8_b1_ms", "ms"},
	{"infer.allocs_per_forward", "count"},

	{"tensor.conv_fwd_gflops", "GFLOP/s"},
	{"tensor.conv_bwd_gflops", "GFLOP/s"},

	{"scan.tiles", "count"},
	{"scan.retries", "count"},
	{"scan.classify_p50_ms", "ms"},
	{"scan.self_us_per_tile", "us"},
	{"scan.emit_us_per_event", "us"},

	{"geodata.source_ms", "ms"},
	{"geodata.chip_us", "us"},
	{"geodata.corpus_ms", "ms"},

	{"nas.trial_p50_s", "s"},
	{"nas.enumerate_ms", "ms"},
	{"nas.experiment_ms", "ms"},

	{"nn.forward_ms", "ms"},
	{"nn.backward_ms", "ms"},
	{"nn.step_ms", "ms"},
	{"dataset.batch_ms", "ms"},

	{"core.measure_us", "us"},
	{"latmeter.predict_us", "us"},
	{"onnxsize.size_us", "us"},
	{"pareto.nds_ms", "ms"},

	{"trace.spans", "count"},
	{"trace.e2e_p50_ms", "ms"},
	{"trace.self_sum_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// metricValue is one reported number, in the driver's output shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics of one run against one of the tables above.
// Setting a name the table does not declare, or the same name twice, is a
// bug in the benchmark and panics rather than printing a number nobody
// asked for.
type report struct {
	defs   []metricDef
	values map[string]float64
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: make(map[string]float64, len(defs))}
}

func (r *report) set(name string, v float64) {
	if _, dup := r.values[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	for _, d := range r.defs {
		if d.name == name {
			r.values[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// finish returns the metrics in the driver's shape. A per-layer metric the
// workload never set is 0 (its layer did not run); an end-to-end metric
// must be set and must be a positive finite number.
func (r *report) finish(requireAll bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(r.defs))
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		if requireAll && (!ok || v <= 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured (value %v)", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// table renders the metrics one per line, name, value and unit.
func table(m map[string]metricValue) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	return b.String()
}
