package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ExpositionWriter emits Prometheus text exposition format (version 0.0.4)
// with no dependency beyond the stdlib: # HELP / # TYPE headers once per
// metric family, label escaping, and the cumulative _bucket/_sum/_count
// triplet for histograms. Errors are sticky: the first write failure is
// remembered and returned by Flush, so callers check one error at the end.
//
// The caller is responsible for keeping samples of one family contiguous
// (emit all label variants of a family before moving on), as the format
// requires; ValidateExposition enforces it.
type ExpositionWriter struct {
	w    *bufio.Writer
	err  error
	seen map[string]bool // families whose HELP/TYPE already went out
}

// NewExpositionWriter wraps w for exposition output.
func NewExpositionWriter(w io.Writer) *ExpositionWriter {
	return &ExpositionWriter{w: bufio.NewWriter(w), seen: map[string]bool{}}
}

// Counter emits one counter sample. labels are alternating key, value pairs.
func (e *ExpositionWriter) Counter(name, help string, value float64, labels ...string) {
	e.header(name, help, "counter")
	e.sample(name, labels, value)
}

// Gauge emits one gauge sample. labels are alternating key, value pairs.
func (e *ExpositionWriter) Gauge(name, help string, value float64, labels ...string) {
	e.header(name, help, "gauge")
	e.sample(name, labels, value)
}

// Histogram emits one histogram series: cumulative buckets (upper bounds in
// seconds), the mandatory +Inf bucket, _sum and _count. labels are
// alternating key, value pairs applied to every line.
func (e *ExpositionWriter) Histogram(name, help string, h HistogramSnapshot, labels ...string) {
	e.header(name, help, "histogram")
	var cum uint64
	for _, b := range h.Buckets {
		if b.Upper == histOverflow {
			break // the overflow bucket is covered by +Inf below
		}
		cum += b.Count
		le := strconv.FormatFloat(b.Upper.Seconds(), 'g', -1, 64)
		e.sample(name+"_bucket", append(append([]string{}, labels...), "le", le), float64(cum))
	}
	e.sample(name+"_bucket", append(append([]string{}, labels...), "le", "+Inf"), float64(h.Count))
	e.sample(name+"_sum", labels, h.Sum.Seconds())
	e.sample(name+"_count", labels, float64(h.Count))
}

// Flush drains the buffer and returns the first error encountered.
func (e *ExpositionWriter) Flush() error {
	if e.err == nil {
		e.err = e.w.Flush()
	}
	return e.err
}

func (e *ExpositionWriter) header(name, help string, typ string) {
	if e.seen[name] {
		return
	}
	e.seen[name] = true
	if help != "" {
		e.printf("# HELP %s %s\n", name, escapeHelp(help))
	}
	e.printf("# TYPE %s %s\n", name, typ)
}

func (e *ExpositionWriter) sample(name string, labels []string, value float64) {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for %s: %v", name, labels))
	}
	e.printf("%s", name)
	if len(labels) > 0 {
		e.printf("{")
		for i := 0; i < len(labels); i += 2 {
			if i > 0 {
				e.printf(",")
			}
			e.printf(`%s="%s"`, labels[i], escapeLabel(labels[i+1]))
		}
		e.printf("}")
	}
	e.printf(" %s\n", formatValue(value))
}

func (e *ExpositionWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// WriteProm renders the serving counters, the three global latency
// histograms, per-quantile summary gauges, and the per-model breakdown.
func (s ServingSnapshot) WriteProm(e *ExpositionWriter) {
	const reqs = "drainnas_serving_requests_total"
	for _, o := range []struct {
		outcome string
		v       uint64
	}{
		{"accepted", s.Accepted}, {"rejected", s.Rejected}, {"canceled", s.Canceled},
		{"failed", s.Failed}, {"completed", s.Completed},
	} {
		e.Counter(reqs, "Requests by admission/lifecycle outcome.", float64(o.v), "outcome", o.outcome)
	}
	e.Counter("drainnas_serving_batches_total", "Executed batches.", float64(s.Batches))
	e.Gauge("drainnas_serving_batch_mean", "Mean executed batch size.", s.MeanBatch)
	e.Gauge("drainnas_serving_batch_max", "Largest executed batch.", float64(s.MaxBatch))
	e.Gauge("drainnas_serving_queue_depth", "Admitted-but-unfinished requests.", float64(s.QueueDepth))
	e.Gauge("drainnas_serving_queue_depth_max", "High-water mark of the admission queue.", float64(s.MaxQueueDepth))

	e.Histogram("drainnas_serving_queue_wait_seconds", "Time from admission to batch start.", s.QueueWait)
	e.Histogram("drainnas_serving_exec_seconds", "Batch forward-pass duration.", s.Exec)
	e.Histogram("drainnas_serving_latency_seconds", "End-to-end request latency (admission to response).", s.Latency)
	writeQuantileGauges(e, "drainnas_serving_latency_quantile_seconds",
		"End-to-end latency quantiles from the streaming histogram.", s.Latency)

	for _, name := range sortedModelKeys(s.PerModel) {
		m := s.PerModel[name]
		for _, o := range []struct {
			outcome string
			v       uint64
		}{{"accepted", m.Accepted}, {"completed", m.Completed}, {"failed", m.Failed}, {"canceled", m.Canceled}} {
			e.Counter("drainnas_serving_model_requests_total", "Per-model requests by outcome.",
				float64(o.v), "model", name, "outcome", o.outcome)
		}
	}
	for _, name := range sortedModelKeys(s.PerModel) {
		e.Histogram("drainnas_serving_model_latency_seconds", "Per-model end-to-end latency.",
			s.PerModel[name].Latency, "model", name)
	}
}

func writeQuantileGauges(e *ExpositionWriter, name, help string, h HistogramSnapshot) {
	for _, q := range []struct {
		label string
		ms    float64
	}{{"0.5", h.P50MS}, {"0.9", h.P90MS}, {"0.95", h.P95MS}, {"0.99", h.P99MS}} {
		e.Gauge(name, help, q.ms/1e3, "quantile", q.label)
	}
}

func sortedModelKeys(m map[string]ModelServingSnapshot) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteProm renders the routing-tier counters: request outcomes, hedging,
// per-policy decisions, per-class queue-wait/latency histograms and the
// per-replica breakdown.
func (s RouterSnapshot) WriteProm(e *ExpositionWriter) {
	const reqs = "drainnas_router_requests_total"
	for _, o := range []struct {
		outcome string
		v       uint64
	}{
		{"submitted", s.Submitted}, {"throttled", s.Throttled},
		{"no_replicas", s.NoReplicas}, {"completed", s.Completed}, {"failed", s.Failed},
	} {
		e.Counter(reqs, "Routed requests by outcome.", float64(o.v), "outcome", o.outcome)
	}
	e.Counter("drainnas_router_hedges_total", "Hedge attempts launched at straggler deadlines.", float64(s.HedgesLaunched))
	e.Counter("drainnas_router_hedge_wins_total", "Hedge attempts that beat their primary.", float64(s.HedgeWins))
	e.Counter("drainnas_router_losers_canceled_total", "Losing attempts canceled after a winner.", float64(s.LosersCanceled))
	e.Counter("drainnas_router_retries_total", "Immediate error-retries dispatched.", float64(s.Retries))

	e.Histogram("drainnas_router_decide_seconds", "Policy decision latency.", s.Decide)
	e.Histogram("drainnas_router_latency_seconds", "End-to-end latency through the router.", s.Latency)
	writeQuantileGauges(e, "drainnas_router_latency_quantile_seconds",
		"Router end-to-end latency quantiles from the streaming histogram.", s.Latency)

	for _, policy := range sortedKeys(s.PerPolicy) {
		e.Counter("drainnas_router_decisions_total", "Routing decisions by policy.",
			float64(s.PerPolicy[policy]), "policy", policy)
	}

	classes := sortedKeys(s.PerClass)
	for _, class := range classes {
		c := s.PerClass[class]
		for _, o := range []struct {
			outcome string
			v       uint64
		}{{"submitted", c.Submitted}, {"completed", c.Completed}, {"failed", c.Failed}} {
			e.Counter("drainnas_router_class_requests_total", "Per-SLO-class requests by outcome.",
				float64(o.v), "class", class, "outcome", o.outcome)
		}
	}
	for _, class := range classes {
		e.Histogram("drainnas_router_class_queue_wait_seconds", "Per-SLO-class wait at the scheduling gate.",
			s.PerClass[class].QueueWait, "class", class)
	}
	for _, class := range classes {
		e.Histogram("drainnas_router_class_latency_seconds", "Per-SLO-class end-to-end latency.",
			s.PerClass[class].Latency, "class", class)
	}

	for _, id := range sortedKeys(s.PerReplica) {
		r := s.PerReplica[id]
		for _, o := range []struct {
			outcome string
			v       uint64
		}{
			{"picked", r.Picked}, {"completed", r.Completed}, {"failed", r.Failed},
			{"hedged", r.Hedges}, {"retried", r.Retries},
		} {
			e.Counter("drainnas_router_replica_attempts_total", "Per-replica attempts by outcome.",
				float64(o.v), "replica", id, "outcome", o.outcome)
		}
	}
}

// WriteProm renders the multi-tenant edge-tier counters: the global
// unauthorized count and per-tenant request outcomes, fair-queue wait and
// end-to-end latency.
func (s TenantSnapshot) WriteProm(e *ExpositionWriter) {
	e.Counter("drainnas_tenant_unauthorized_total",
		"Requests rejected for a missing or unknown API key.", float64(s.Unauthorized))

	tenants := sortedKeys(s.PerTenant)
	for _, name := range tenants {
		t := s.PerTenant[name]
		for _, o := range []struct {
			outcome string
			v       uint64
		}{
			{"admitted", t.Admitted}, {"quota_exceeded", t.QuotaExceeded},
			{"completed", t.Completed}, {"failed", t.Failed},
		} {
			e.Counter("drainnas_tenant_requests_total", "Per-tenant requests by outcome.",
				float64(o.v), "tenant", name, "outcome", o.outcome)
		}
	}
	for _, name := range tenants {
		e.Histogram("drainnas_tenant_queue_wait_seconds", "Per-tenant wait at the weighted-fair admission gate.",
			s.PerTenant[name].QueueWait, "tenant", name)
	}
	for _, name := range tenants {
		e.Histogram("drainnas_tenant_latency_seconds", "Per-tenant end-to-end latency through the edge tier.",
			s.PerTenant[name].Latency, "tenant", name)
	}
}

// sortedKeys returns m's keys in sorted order for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteProm renders the kernel counters.
func (k KernelSnapshot) WriteProm(e *ExpositionWriter) {
	e.Counter("drainnas_kernel_gemm_calls_total", "Multiplies run on the tiled kernel: one per tiled float convolution layer per batch, one per other tiled matmul.", float64(k.GemmCalls))
	e.Counter("drainnas_kernel_naive_calls_total", "Multiplies kept on the naive kernel: one per sample of a float convolution layer too small to tile, one per other small matmul.", float64(k.NaiveCalls))
	e.Counter("drainnas_kernel_tiles_dispatched_total", "Micro-tiles run by the float micro-kernel: weight row tiles times column panels.", float64(k.TilesDispatched))
	e.Counter("drainnas_kernel_packs_reused_total", "Tiled multiplies that found their weight panels already packed.", float64(k.PacksReused))
	e.Counter("drainnas_kernel_scratch_hits_total", "Scratch-pool requests served from a pooled buffer.", float64(k.ScratchHits))
	e.Counter("drainnas_kernel_scratch_misses_total", "Scratch-pool requests that had to allocate.", float64(k.ScratchMisses))
}

// WriteProm renders the sweep counters and the trial-duration histogram.
func (s SweepSnapshot) WriteProm(e *ExpositionWriter) {
	e.Gauge("drainnas_sweep_trials_planned", "Full plan size, journal-reused trials included.", float64(s.Total))
	e.Gauge("drainnas_sweep_trials_reused", "Trials satisfied from a resumed journal.", float64(s.Reused))
	e.Gauge("drainnas_sweep_trials_remaining", "Trials not yet completed.", float64(s.Remaining))
	e.Counter("drainnas_sweep_trials_succeeded_total", "Trials that completed successfully.", float64(s.Succeeded))
	e.Counter("drainnas_sweep_trials_failed_total", "Trials that exhausted their attempts.", float64(s.Failed))
	e.Counter("drainnas_sweep_trial_retries_total", "Retries of transiently-failed trials.", float64(s.Retried))
	e.Histogram("drainnas_sweep_trial_seconds", "Wall time of completed trials.", s.Trials)
	e.Gauge("drainnas_sweep_eta_seconds", "Extrapolated remaining wall time.", s.ETA.Seconds())
}

var (
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)( [0-9]+)?$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// ValidateExposition checks r for text-exposition well-formedness: line
// grammar, TYPE/HELP placement (at most one per family, before its samples),
// family contiguity, and — for histogram-typed families — cumulative
// non-decreasing buckets with increasing le, a +Inf bucket, and agreement
// between the +Inf bucket and _count. It is the checker behind
// `make obs-smoke`; it accepts everything ExpositionWriter produces.
func ValidateExposition(r io.Reader) error {
	types := map[string]string{}
	helped := map[string]bool{}
	closed := map[string]bool{} // families we've moved past
	var cur string              // family of the current contiguous block

	type histState struct {
		lastLE     float64
		lastCum    float64
		infCount   float64
		sawInf     bool
		bucketSeen bool
	}
	// Histogram bucket invariants hold per series (family + label set minus
	// le), not per family: per-model histograms restart le from the bottom
	// for each model label.
	hists := map[string]map[string]*histState{}

	finish := func(fam string) error {
		if fam == "" {
			return nil
		}
		closed[fam] = true
		if types[fam] == "histogram" {
			series := hists[fam]
			if len(series) == 0 {
				return fmt.Errorf("histogram %s: no buckets", fam)
			}
			for key, h := range series {
				if !h.sawInf {
					return fmt.Errorf("histogram %s{%s}: missing +Inf bucket", fam, key)
				}
			}
		}
		return nil
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.SplitN(text, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			fam := fields[2]
			if closed[fam] {
				return fmt.Errorf("line %d: %s for family %s after its samples ended", line, fields[1], fam)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE line", line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", line, fields[3])
				}
				if _, dup := types[fam]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", line, fam)
				}
				if cur != "" && cur != fam {
					if err := finish(cur); err != nil {
						return err
					}
				}
				types[fam] = fields[3]
				cur = fam
			} else {
				if helped[fam] {
					return fmt.Errorf("line %d: duplicate HELP for %s", line, fam)
				}
				helped[fam] = true
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(text)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample %q", line, text)
		}
		name, labels, value := m[1], m[3], m[4]
		if value != "+Inf" && value != "-Inf" && value != "NaN" {
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				return fmt.Errorf("line %d: bad value %q", line, value)
			}
		}
		if labels != "" {
			for _, pair := range splitLabels(labels) {
				if !promLabelRe.MatchString(pair) {
					return fmt.Errorf("line %d: malformed label %q", line, pair)
				}
			}
		}
		fam := sampleFamily(name, types)
		if closed[fam] {
			return fmt.Errorf("line %d: family %s interleaved (samples resumed after another family)", line, fam)
		}
		if cur != "" && cur != fam {
			if err := finish(cur); err != nil {
				return err
			}
		}
		cur = fam
		if types[fam] == "histogram" {
			if hists[fam] == nil {
				hists[fam] = map[string]*histState{}
			}
			key := stripLabel(labels, "le")
			h := hists[fam][key]
			if h == nil {
				h = &histState{lastLE: math.Inf(-1)}
				hists[fam][key] = h
			}
			switch {
			case name == fam+"_bucket":
				le, ok := labelValue(labels, "le")
				if !ok {
					return fmt.Errorf("line %d: %s_bucket without le label", line, fam)
				}
				leV := parseLE(le)
				if math.IsNaN(leV) {
					return fmt.Errorf("line %d: bad le %q", line, le)
				}
				v := parseValue(value)
				if h.bucketSeen && leV <= h.lastLE {
					return fmt.Errorf("line %d: %s buckets not in increasing le order", line, fam)
				}
				if h.bucketSeen && v < h.lastCum {
					return fmt.Errorf("line %d: %s bucket counts not cumulative", line, fam)
				}
				h.lastLE, h.lastCum, h.bucketSeen = leV, v, true
				if math.IsInf(leV, 1) {
					h.sawInf, h.infCount = true, v
				}
			case name == fam+"_count":
				if h.sawInf && parseValue(value) != h.infCount {
					return fmt.Errorf("line %d: %s_count %s != +Inf bucket %v", line, fam, value, h.infCount)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return finish(cur)
}

// sampleFamily strips the histogram/summary child suffix when the base name
// has a declared TYPE.
func sampleFamily(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(name, suffix)
		if !found {
			continue
		}
		if t, ok := types[base]; ok && (t == "histogram" || t == "summary") {
			return base
		}
	}
	return name
}

func splitLabels(s string) []string {
	// Split on commas not inside a quoted value. Label values may contain
	// escaped quotes, so track the escape state.
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, r := range s {
		switch {
		case escaped:
			escaped = false
		case r == '\\' && inQuote:
			escaped = true
		case r == '"':
			inQuote = !inQuote
		case r == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
			continue
		}
		cur.WriteRune(r)
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// stripLabel removes one label pair from a raw label string, yielding the
// series identity used for per-series histogram checks.
func stripLabel(labels, key string) string {
	var kept []string
	for _, pair := range splitLabels(labels) {
		if k, _, ok := strings.Cut(pair, "="); !ok || k != key {
			kept = append(kept, pair)
		}
	}
	return strings.Join(kept, ",")
}

func labelValue(labels, key string) (string, bool) {
	for _, pair := range splitLabels(labels) {
		k, v, ok := strings.Cut(pair, "=")
		if ok && k == key {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

func parseLE(s string) float64 {
	if s == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

func parseValue(s string) float64 {
	switch s {
	case "+Inf":
		return math.Inf(1)
	case "-Inf":
		return math.Inf(-1)
	case "NaN":
		return math.NaN()
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}
