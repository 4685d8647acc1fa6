package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"drainnas/internal/latmeter"
	"drainnas/internal/route"
)

// TestTraceRoundTripIdentity is the replay acceptance property: generate a
// workload, save it as a trace, read the trace back, and the simulator must
// produce a byte-identical report from the replayed arrivals — the trace
// file loses nothing the pipeline depends on.
func TestTraceRoundTripIdentity(t *testing.T) {
	arr, err := testWorkload(99).Arrivals()
	if err != nil {
		t.Fatalf("arrivals: %v", err)
	}
	cfg := Config{
		Replicas: 2, Workers: 2, MaxInFlight: 32, AdmitRate: 400, AdmitBurst: 40,
		Models: testModels(), Horizon: 2 * time.Second,
	}
	direct, err := Run(cfg, arr)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, EventsFromArrivals(arr)); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	if len(events) != len(arr) {
		t.Fatalf("trace holds %d events, want %d", len(events), len(arr))
	}
	replayed, err := TraceArrivals(events)
	if err != nil {
		t.Fatalf("trace arrivals: %v", err)
	}
	for i := range arr {
		if replayed[i] != arr[i] {
			t.Fatalf("arrival %d changed across the file round-trip:\n  orig   %+v\n  replay %+v",
				i, arr[i], replayed[i])
		}
	}
	viaTrace, err := Run(cfg, replayed)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if direct.Render() != viaTrace.Render() {
		t.Fatalf("replayed report differs from direct report:\n--- direct ---\n%s--- replay ---\n%s",
			direct.Render(), viaTrace.Render())
	}
	dj, _ := json.Marshal(direct)
	rj, _ := json.Marshal(viaTrace)
	if !bytes.Equal(dj, rj) {
		t.Fatal("replayed JSON differs from direct JSON")
	}
}

// TestTraceCarriesHold: a scan's hold marks survive the file round-trip,
// and an arrival that holds nothing writes no hold key, so a recorded
// predict stream reads as it did before the mark existed.
func TestTraceCarriesHold(t *testing.T) {
	arr, err := ScanWorkload{Model: "paper", Tiles: 6, Window: 4, Pace: time.Millisecond, C: 5, S: 64}.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, EventsFromArrivals(arr)); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(buf.String(), "\n")
	if strings.Contains(first, "hold") {
		t.Fatalf("unheld arrival wrote %s", first)
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := TraceArrivals(events)
	if err != nil {
		t.Fatal(err)
	}
	for i := range arr {
		if back[i] != arr[i] {
			t.Fatalf("arrival %d: %+v after the round-trip, want %+v", i, back[i], arr[i])
		}
	}
}

// TestTraceWriterRecordsOffsets checks the live recorder: offsets start at
// zero, events validate, and Close flushes.
func TestTraceWriterRecordsOffsets(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Record("paper@int8", "interactive", []int{5, 128, 128})
	tw.Record("paper", "", []int{5, 128, 128})
	tw.Record("bad", "", []int{5, 128}) // wrong rank: dropped
	if err := tw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if tw.Count() != 2 {
		t.Fatalf("recorded %d events, want 2", tw.Count())
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("read %d events, want 2", len(events))
	}
	if events[0].TMS != 0 {
		t.Fatalf("first event at t_ms %v, want 0 (trace-relative clock)", events[0].TMS)
	}
	if events[0].Model != "paper@int8" || events[0].SLO != "interactive" {
		t.Fatalf("first event %+v lost fields", events[0])
	}
	if events[1].TMS < 0 {
		t.Fatalf("second event at t_ms %v, want >= 0", events[1].TMS)
	}
}

// TestReadTraceRejectsCorruptLines checks the reader's validation paths
// report line numbers.
func TestReadTraceRejectsCorruptLines(t *testing.T) {
	cases := []struct{ name, in string }{
		{"bad json", `{"t_ms":0,"model":"m","c":1,"h":1,"w":1}` + "\n{nope\n"},
		{"negative time", `{"t_ms":-5,"model":"m","c":1,"h":1,"w":1}` + "\n"},
		{"empty model", `{"t_ms":0,"model":"","c":1,"h":1,"w":1}` + "\n"},
		{"zero dim", `{"t_ms":0,"model":"m","c":0,"h":1,"w":1}` + "\n"},
		{"huge dim", `{"t_ms":0,"model":"m","c":1,"h":1,"w":2097152}` + "\n"},
		{"bad slo", `{"t_ms":0,"model":"m","slo":"urgent","c":1,"h":1,"w":1}` + "\n"},
		{"nan time", `{"t_ms":"x","model":"m","c":1,"h":1,"w":1}` + "\n"},
	}
	for _, tc := range cases {
		if _, err := ReadTrace(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		} else if !strings.Contains(err.Error(), "line") {
			t.Errorf("%s: error %q does not name the line", tc.name, err)
		}
	}
	// Blank lines are fine.
	events, err := ReadTrace(strings.NewReader("\n" + `{"t_ms":1,"model":"m","c":1,"h":1,"w":1}` + "\n\n"))
	if err != nil || len(events) != 1 {
		t.Fatalf("blank-line trace: %v, %d events", err, len(events))
	}
}

// TestReplaySortsTraceStably checks what replaying a recorded file feeds the
// simulator: events stored out of order come back sorted by time, ties keep
// file order (the recorder's observation order), serving keys keep their
// precision suffix, and an event without an SLO replays as standard.
func TestReplaySortsTraceStably(t *testing.T) {
	events := []TraceEvent{
		{TMS: 2, Model: "paper", SLO: "batch", C: 2, H: 4, W: 4},
		{TMS: 1, Model: "paper@int8", C: 2, H: 4, W: 4},
		{TMS: 1, Model: "lean", SLO: "interactive", C: 5, H: 8, W: 8},
		{TMS: 0, Model: "paper", C: 2, H: 4, W: 4},
	}
	arr, err := TraceArrivals(events)
	if err != nil {
		t.Fatal(err)
	}
	want := []Arrival{
		{At: 0, Model: "paper", Class: route.ClassStandard, C: 2, H: 4, W: 4},
		{At: time.Millisecond, Model: "paper@int8", Class: route.ClassStandard, C: 2, H: 4, W: 4},
		{At: time.Millisecond, Model: "lean", Class: route.ClassInteractive, C: 5, H: 8, W: 8},
		{At: 2 * time.Millisecond, Model: "paper", Class: route.ClassBatch, C: 2, H: 4, W: 4},
	}
	if len(arr) != len(want) {
		t.Fatalf("%d arrivals, want %d", len(arr), len(want))
	}
	for i := range want {
		if arr[i] != want[i] {
			t.Fatalf("arrival %d = %+v, want %+v", i, arr[i], want[i])
		}
	}
	bad := append(events, TraceEvent{TMS: 3, Model: "", C: 1, H: 1, W: 1})
	if _, err := TraceArrivals(bad); err == nil {
		t.Fatal("an invalid event replayed")
	}

	// Two concatenated recordings arrive unsorted; a large reversed file
	// must sort in n log n, not the quadratic time an insertion sort takes.
	// Events come in equal-time pairs whose H marks file order.
	const n = 100000
	reversed := make([]TraceEvent, n)
	for i := range reversed {
		reversed[i] = TraceEvent{TMS: float64((n - 1 - i) / 2), Model: "paper", C: 1, H: 1 + i%2, W: 1}
	}
	arr, err = TraceArrivals(reversed)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arr {
		if a.At != time.Duration(i/2)*time.Millisecond || a.H != 1+i%2 {
			t.Fatalf("reversed trace: arrival %d = %+v, want at %dms with H %d", i, a, i/2, 1+i%2)
		}
	}
}

// FuzzTraceDecode hammers the JSONL reader with arbitrary bytes: it must
// never panic, and anything it accepts must validate and convert.
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte(`{"t_ms":0,"model":"paper","c":5,"h":128,"w":128}` + "\n"))
	f.Add([]byte(`{"t_ms":1.5,"model":"paper@int8","slo":"batch","c":1,"h":1,"w":1}` + "\n"))
	f.Add([]byte(`{"t_ms":-1,"model":"m","c":1,"h":1,"w":1}`))
	f.Add([]byte(`{"t_ms":1e308,"model":"m","c":1,"h":1,"w":1}`))
	f.Add([]byte(`{"t_ms":2,"model":"paper","slo":"batch","c":5,"h":64,"w":64,"hold":true}` + "\n"))
	f.Add([]byte("\n\n{}\n"))
	f.Add([]byte(`{"t_ms":0,"model":"` + strings.Repeat("a", 300) + `","c":1,"h":1,"w":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, ev := range events {
			if verr := ev.Validate(); verr != nil {
				t.Fatalf("ReadTrace accepted invalid event %d (%+v): %v", i, ev, verr)
			}
		}
		arrivals, err := TraceArrivals(events)
		if err != nil {
			t.Fatalf("accepted trace failed conversion: %v", err)
		}
		for i := 1; i < len(arrivals); i++ {
			if arrivals[i].At < arrivals[i-1].At {
				t.Fatalf("TraceArrivals out of order at %d", i)
			}
		}
		if len(arrivals) > 0 {
			models := map[string]latmeter.ServiceModel{}
			for _, a := range arrivals {
				models[a.Model] = latmeter.ServiceModel{PerItemMS: 1}
			}
			if _, err := Run(Config{Models: models}, arrivals); err != nil {
				t.Fatalf("accepted trace failed simulation: %v", err)
			}
		}
	})
}
