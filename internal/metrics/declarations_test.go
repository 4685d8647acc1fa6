package metrics_test

import (
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/metrics"
)

// The documents a tagged field can be reached from: the two /v1/stats
// documents (which are the /v1/metrics pages), the dashboard frame that
// reuses their sections, and the sweep snapshot nascli prints.
var documents = []any{api.ServdStats{}, api.RouterStats{}, api.DashboardSnapshot{}, metrics.SweepSnapshot{}}

// jsonOnly names every numeric field that is in a document on purpose
// without being a series: restatements of a histogram's mean or max, wall
// clocks, and instantaneous depths the gauges of another family cover. A
// new numeric field is either tagged or added here.
var jsonOnly = map[string]bool{
	"ServingSnapshot.MeanQueueWaitMS": true,
	"ServingSnapshot.MeanLatencyMS":   true,
	"ServingSnapshot.MaxLatencyMS":    true,
	"ServingSnapshot.MeanExecMS":      true,
	"SweepSnapshot.MeanTrialMS":       true,
	"SweepSnapshot.Elapsed":           true,
	"ServdStats.Queue":                true,
	"RouterStats.Waiting":             true,
	"FairStats.Capacity":              true,
	"FairStats.InUse":                 true,
	"FairStats.Waiting":               true,
	"FairStats.Depths":                true,
}

var (
	histogramType = reflect.TypeOf(metrics.HistogramSnapshot{})
	promNameRe    = regexp.MustCompile(`^drainnas_[a-z0-9_]+$`)
)

func numeric(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

// kindOf is the exposition kind a field of type t named name declares.
func kindOf(name string, t reflect.Type) string {
	switch {
	case t == histogramType:
		return "histogram"
	case strings.HasSuffix(name, "_total"):
		return "counter"
	}
	return "gauge"
}

// structsOf collects every struct type reachable from t through fields,
// pointers and map elements, stopping at HistogramSnapshot (a leaf value).
func structsOf(t reflect.Type, seen map[reflect.Type]bool) {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Map || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct || t == histogramType || seen[t] {
		return
	}
	seen[t] = true
	for i := 0; i < t.NumField(); i++ {
		structsOf(t.Field(i).Type, seen)
	}
}

// TestMetricDeclarations holds every tagged struct reachable from the
// stats documents to the declaration rules ExpositionWriter.Write relies
// on, so a family cannot be declared inconsistently or a new counter be
// left out of the exposition by accident.
func TestMetricDeclarations(t *testing.T) {
	types := map[reflect.Type]bool{}
	for _, doc := range documents {
		structsOf(reflect.TypeOf(doc), types)
	}
	type family struct {
		helps int
		kind  string
		owner reflect.Type
	}
	families := map[string]*family{}
	declare := func(name, help, kind string, owner reflect.Type, where string) {
		if !promNameRe.MatchString(name) {
			t.Errorf("%s: metric name %q does not match %s", where, name, promNameRe)
		}
		f := families[name]
		if f == nil {
			// HELP goes out with the family's first sample, so the first
			// field is the one that has to carry it.
			if help == "" {
				t.Errorf("%s: first field of family %s has no help tag", where, name)
			}
			f = &family{kind: kind, owner: owner}
			families[name] = f
		}
		if help != "" {
			f.helps++
		}
		if f.kind != kind {
			t.Errorf("%s: family %s is declared both %s and %s", where, name, f.kind, kind)
		}
		if f.owner != owner {
			t.Errorf("%s: family %s is also declared in %s", where, name, f.owner)
		}
	}

	for st := range types {
		last := map[string]int{} // family -> index of its latest field in st
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			where := st.Name() + "." + f.Name
			ft := f.Type
			if label, ok := f.Tag.Lookup("label"); ok {
				if ft.Kind() != reflect.Map || ft.Key().Kind() != reflect.String || label == "" {
					t.Errorf("%s: label tag on %s, want a map keyed by string", where, ft)
					continue
				}
				ft = ft.Elem()
			}
			tag, tagged := f.Tag.Lookup("prom")
			if !tagged {
				for _, orphan := range []string{"help", "quantiles", "qhelp"} {
					if _, ok := f.Tag.Lookup(orphan); ok {
						t.Errorf("%s: %s tag without a prom tag", where, orphan)
					}
				}
				leaf := numeric(ft) || ft == histogramType ||
					(ft.Kind() == reflect.Map && (numeric(ft.Elem()) || ft.Elem() == histogramType))
				if f.IsExported() && leaf && !jsonOnly[where] {
					t.Errorf("%s is numeric, has no prom tag and is not in the JSON-only list", where)
				}
				continue
			}
			if jsonOnly[where] {
				t.Errorf("%s is tagged and in the JSON-only list", where)
			}
			if !f.IsExported() || !(numeric(ft) || ft == histogramType) {
				t.Errorf("%s: prom tag on %s, want an exported number, duration or HistogramSnapshot", where, ft)
			}
			name, fixed, _ := strings.Cut(tag, ",")
			for _, kv := range strings.Split(fixed, ",") {
				if k, v, ok := strings.Cut(kv, "="); fixed != "" && (!ok || k == "" || v == "") {
					t.Errorf("%s: malformed fixed label %q", where, kv)
				}
			}
			declare(name, f.Tag.Get("help"), kindOf(name, ft), st, where)
			if prev, ok := last[name]; ok && prev != i-1 {
				t.Errorf("%s: family %s resumes after another field; its fields must be adjacent", where, name)
			}
			last[name] = i
			if q, ok := f.Tag.Lookup("quantiles"); ok {
				if ft != histogramType {
					t.Errorf("%s: quantiles tag on %s", where, ft)
				}
				declare(q, f.Tag.Get("qhelp"), "gauge", st, where)
			}
		}
	}
	if len(families) < 50 {
		t.Fatalf("walked only %d families; the documents' sections were not reached", len(families))
	}
	for name, f := range families {
		if f.helps != 1 {
			t.Errorf("family %s has %d help texts, want exactly one", name, f.helps)
		}
	}
}

// filler sets every tagged leaf of a document to its own value and records
// the sample line that value must appear on.
type filler struct {
	next float64
	want []string
}

func sampleLine(name string, labels []string, v float64) string {
	var b strings.Builder
	b.WriteString(name)
	for i := 0; i < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(&b, `%s%s="%s"`, sep, labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		b.WriteString("}")
	}
	return b.String() + " " + strconv.FormatFloat(v, 'g', -1, 64)
}

func (fl *filler) leaf(f reflect.StructField, v reflect.Value, labels []string) {
	tag, _ := f.Tag.Lookup("prom")
	name, fixed, _ := strings.Cut(tag, ",")
	labels = append([]string{}, labels...)
	for _, kv := range strings.FieldsFunc(fixed, func(r rune) bool { return r == ',' }) {
		k, val, _ := strings.Cut(kv, "=")
		labels = append(labels, k, val)
	}
	fl.next++
	n := fl.next
	switch {
	case v.Type() == histogramType:
		v.Set(reflect.ValueOf(metrics.HistogramSnapshot{
			Count: uint64(n), Sum: time.Duration(n) * time.Millisecond,
			P50MS: n + 0.5, P90MS: n + 0.9, P95MS: n + 0.95, P99MS: n + 0.99,
			Buckets: []metrics.HistogramBucket{{Upper: time.Second, Count: uint64(n)}},
		}))
		fl.want = append(fl.want,
			sampleLine(name+"_count", labels, n),
			sampleLine(name+"_sum", labels, (time.Duration(n)*time.Millisecond).Seconds()),
			sampleLine(name+"_bucket", append(labels, "le", "1"), n))
		if q := f.Tag.Get("quantiles"); q != "" {
			fl.want = append(fl.want, sampleLine(q, append(labels[:len(labels):len(labels)], "quantile", "0.95"), (n+0.95)/1e3))
		}
	case v.Type() == reflect.TypeOf(time.Duration(0)):
		v.SetInt(int64(n) * int64(time.Millisecond))
		fl.want = append(fl.want, sampleLine(name, labels, (time.Duration(n)*time.Millisecond).Seconds()))
	case v.CanInt():
		v.SetInt(int64(n))
		fl.want = append(fl.want, sampleLine(name, labels, n))
	case v.CanUint():
		v.SetUint(uint64(n))
		fl.want = append(fl.want, sampleLine(name, labels, n))
	default:
		v.SetFloat(n + 0.25)
		fl.want = append(fl.want, sampleLine(name, labels, n+0.25))
	}
}

func (fl *filler) fill(v reflect.Value, labels []string) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		_, tagged := f.Tag.Lookup("prom")
		if label, ok := f.Tag.Lookup("label"); ok {
			fv.Set(reflect.MakeMap(f.Type))
			for _, key := range []string{"k-one", "k-two"} {
				elem := reflect.New(f.Type.Elem()).Elem()
				if at := append(append([]string{}, labels...), label, key); tagged {
					fl.leaf(f, elem, at)
				} else {
					fl.fill(elem, at)
				}
				fv.SetMapIndex(reflect.ValueOf(key), elem)
			}
			continue
		}
		switch {
		case tagged:
			fl.leaf(f, fv, labels)
		case fv.Kind() == reflect.Struct && f.Type != histogramType:
			fl.fill(fv, labels)
		case fv.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct:
			fv.Set(reflect.New(f.Type.Elem()))
			fl.fill(fv.Elem(), labels)
		}
	}
}

// TestEveryTaggedFieldIsRendered fills every tagged leaf of each document
// with a value of its own (two keys per breakdown map), renders the
// document, holds the page to the validator and finds each value under its
// family name and labels: no tag is silently dropped by the walk.
func TestEveryTaggedFieldIsRendered(t *testing.T) {
	for _, doc := range documents {
		v := reflect.New(reflect.TypeOf(doc)).Elem()
		fl := &filler{next: 1000}
		fl.fill(v, nil)
		if len(fl.want) == 0 {
			t.Fatalf("%T: no tagged field found", doc)
		}

		var page strings.Builder
		e := metrics.NewExpositionWriter(&page)
		e.Write(v.Interface())
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := metrics.ValidateExposition(strings.NewReader(page.String())); err != nil {
			t.Fatalf("%T: page rejected: %v\n%s", doc, err, page.String())
		}
		lines := map[string]bool{}
		for _, line := range strings.Split(page.String(), "\n") {
			lines[line] = true
		}
		for _, want := range fl.want {
			if !lines[want] {
				t.Errorf("%T: no sample line %q", doc, want)
			}
		}
		if t.Failed() {
			t.Logf("page:\n%s", page.String())
		}
	}
}
