package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ExpositionWriter emits Prometheus text exposition format (version 0.0.4)
// with no dependency beyond the stdlib: # HELP / # TYPE headers once per
// metric family, label escaping, and the cumulative _bucket/_sum/_count
// triplet for histograms. Errors are sticky: the first write failure is
// remembered and returned by Flush, so callers check one error at the end.
//
// Write renders a tagged snapshot struct or stats document; Counter, Gauge
// and Histogram emit single series, whose caller keeps the samples of one
// family contiguous, as the format requires. ValidateExposition enforces it.
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
		e.sample(name+"_bucket", with(labels, "le", le), float64(cum))
	}
	e.sample(name+"_bucket", with(labels, "le", "+Inf"), float64(h.Count))
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
		e.printf("# HELP %s %s\n", name, helpEscaper.Replace(help))
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
			e.printf(`%s="%s"`, labels[i], labelEscaper.Replace(labels[i+1]))
		}
		e.printf("}")
	}
	e.printf(" %s\n", strconv.FormatFloat(value, 'g', -1, 64)) // spells +Inf, -Inf, NaN as the format does
}

func (e *ExpositionWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// Write renders v — a snapshot struct, or a stats document composed of
// them — from its field tags, walking fields in declaration order:
//
//   - prom:"name[,label=value…]" help:"…" makes the field one series of the
//     family name: a histogram when the field is a HistogramSnapshot
//     (quantiles:"name" qhelp:"…" adds its p50–p99 as a gauge family), a
//     counter when name ends in _total, a gauge otherwise; a time.Duration
//     is exported in seconds.
//   - label:"key" on a map adds key="<map key>" per sorted key. The element's
//     fields are the outer loop and the keys the inner one, so a family stays
//     contiguous however many keys there are.
//   - untagged structs and non-nil struct pointers are descended; any other
//     untagged field belongs to the JSON document only.
//
// The document /v1/stats marshals is therefore the /v1/metrics page: a
// metric is declared once, on the field that carries it.
func (e *ExpositionWriter) Write(v any) {
	e.fields([]series{{v: reflect.ValueOf(v)}})
}

// series is one value of a field under the labels its enclosing maps gave it.
type series struct {
	labels []string
	v      reflect.Value
}

var (
	histogramType = reflect.TypeOf(HistogramSnapshot{})
	durationType  = reflect.TypeOf(time.Duration(0))
	float64Type   = reflect.TypeOf(float64(0))
)

// fields renders the structs of col — one document, or the elements of one
// breakdown map, so all of one type — field by field across the column.
func (e *ExpositionWriter) fields(col []series) {
	var structs []series
	for _, s := range col {
		for s.v.Kind() == reflect.Pointer && !s.v.IsNil() {
			s.v = s.v.Elem()
		}
		if s.v.Kind() == reflect.Struct {
			structs = append(structs, s)
		}
	}
	if len(structs) == 0 {
		return
	}
	t := structs[0].v.Type()
	for i := 0; i < t.NumField(); i++ {
		if !t.Field(i).IsExported() {
			continue
		}
		sub := make([]series, len(structs))
		for j, s := range structs {
			sub[j] = series{s.labels, s.v.Field(i)}
		}
		e.field(t.Field(i), sub)
	}
}

func (e *ExpositionWriter) field(f reflect.StructField, col []series) {
	if label, ok := f.Tag.Lookup("label"); ok {
		var perKey []series
		for _, s := range col {
			keys := s.v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
			for _, k := range keys {
				perKey = append(perKey, series{with(s.labels, label, k.String()), s.v.MapIndex(k)})
			}
		}
		f.Type, col = f.Type.Elem(), perKey
	}
	tag, ok := f.Tag.Lookup("prom")
	if !ok {
		e.fields(col)
		return
	}
	name, rest, _ := strings.Cut(tag, ",")
	var fixed []string
	for _, kv := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' }) {
		k, v, _ := strings.Cut(kv, "=")
		fixed = append(fixed, k, v)
	}
	help := f.Tag.Get("help")
	for _, s := range col {
		labels := with(s.labels, fixed...)
		switch {
		case f.Type == histogramType:
			e.Histogram(name, help, s.v.Interface().(HistogramSnapshot), labels...)
		case strings.HasSuffix(name, "_total"):
			e.Counter(name, help, number(s.v), labels...)
		default:
			e.Gauge(name, help, number(s.v), labels...)
		}
	}
	if qname := f.Tag.Get("quantiles"); qname != "" {
		for _, s := range col {
			h := s.v.Interface().(HistogramSnapshot)
			for _, q := range []struct {
				label string
				ms    float64
			}{{"0.5", h.P50MS}, {"0.9", h.P90MS}, {"0.95", h.P95MS}, {"0.99", h.P99MS}} {
				e.Gauge(qname, f.Tag.Get("qhelp"), q.ms/1e3, with(s.labels, "quantile", q.label)...)
			}
		}
	}
}

// with returns labels followed by more, never aliasing labels' array.
func with(labels []string, more ...string) []string {
	return append(labels[:len(labels):len(labels)], more...)
}

// number is a tagged scalar as a sample value; a prom tag on anything but a
// number panics in Convert.
func number(v reflect.Value) float64 {
	if v.Type() == durationType {
		return time.Duration(v.Int()).Seconds()
	}
	return v.Convert(float64Type).Float()
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
				leV := parseValue(le)
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

// parseValue reads a sample value or an le bound; ParseFloat knows +Inf,
// -Inf and NaN.
func parseValue(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}
