package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"drainnas/internal/route"
)

// TraceEvent is one recorded arrival, one JSONL line in a -trace file:
// when it arrived (milliseconds since the trace started), which serving key
// it asked for (precision suffix included), its SLO class and chip shape.
// The payload itself is deliberately not recorded — replay synthesizes
// deterministic data from a seed — so traces stay small and shareable.
type TraceEvent struct {
	TMS   float64 `json:"t_ms"`
	Model string  `json:"model"`
	SLO   string  `json:"slo,omitempty"`
	C     int     `json:"c"`
	H     int     `json:"h"`
	W     int     `json:"w"`
}

// maxTraceDim bounds recorded chip dimensions; anything past it is a
// corrupt line, not a plausible input.
const maxTraceDim = 1 << 20

// maxTraceTMS bounds a recorded offset to ~11.5 days of milliseconds: far
// past any real trace, and small enough that the ns conversion in at() is
// exact and cannot overflow time.Duration.
const maxTraceTMS = 1e9

// Validate reports why the event is unusable, or nil. It is the shared
// gate for both the reader (untrusted files) and the recorder.
func (ev TraceEvent) Validate() error {
	if math.IsNaN(ev.TMS) || ev.TMS < 0 || ev.TMS > maxTraceTMS {
		return fmt.Errorf("t_ms %v out of range [0, %g]", ev.TMS, float64(maxTraceTMS))
	}
	if ev.Model == "" {
		return fmt.Errorf("empty model key")
	}
	if len(ev.Model) > 256 {
		return fmt.Errorf("model key %d bytes long, max 256", len(ev.Model))
	}
	for _, d := range [3]int{ev.C, ev.H, ev.W} {
		if d < 1 || d > maxTraceDim {
			return fmt.Errorf("chip shape %dx%dx%d out of range", ev.C, ev.H, ev.W)
		}
	}
	if ev.SLO != "" {
		if _, err := route.ParseClass(ev.SLO); err != nil {
			return err
		}
	}
	return nil
}

// at converts the recorded offset back to a virtual-clock instant. The
// round-trip is exact: TMS values are produced as ns-resolution offsets,
// encoding/json prints float64s with the shortest round-trip representation,
// and round(TMS·1e6) recovers the nanosecond count exactly for any trace
// under ~35 years long.
func (ev TraceEvent) at() time.Duration {
	return time.Duration(math.Round(ev.TMS * float64(time.Millisecond)))
}

// TraceWriter records serving arrivals as JSONL, safe for concurrent
// handlers. The zero time base is the first record (so traces start at
// t_ms 0 regardless of process uptime).
type TraceWriter struct {
	mu    sync.Mutex
	w     *bufio.Writer
	c     io.Closer
	start time.Time
	n     uint64
}

// NewTraceWriter wraps w; if w is also an io.Closer, Close closes it.
func NewTraceWriter(w io.Writer) *TraceWriter {
	tw := &TraceWriter{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		tw.c = c
	}
	return tw
}

// Record appends one arrival with the current wall-clock offset. Invalid
// events (e.g. an unparseable shape slipping past the handler) are dropped
// rather than corrupting the file.
func (t *TraceWriter) Record(model, slo string, shape []int) {
	if len(shape) != 3 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	if t.n == 0 {
		t.start = now
	}
	ev := TraceEvent{
		TMS:   float64(now.Sub(t.start)) / float64(time.Millisecond),
		Model: model, SLO: slo, C: shape[0], H: shape[1], W: shape[2],
	}
	if ev.Validate() != nil {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	t.w.Write(line)
	t.w.WriteByte('\n')
	t.n++
}

// Count reports how many events have been recorded.
func (t *TraceWriter) Count() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Close flushes buffered lines and closes the underlying writer if it is
// closable.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.w.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// maxTraceLine bounds one JSONL line; a valid event is well under 1 KB.
const maxTraceLine = 64 << 10

// ReadTrace decodes a JSONL trace, validating every event and reporting
// errors with their line number. Blank lines are skipped. Events need not
// be sorted on disk; TraceArrivals orders them.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxTraceLine)
	var out []TraceEvent
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ev TraceEvent
		dec := json.NewDecoder(bytes.NewReader(raw))
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		if err := ev.Validate(); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace line %d: %w", line+1, err)
	}
	return out, nil
}

// WriteTrace encodes events as JSONL, one line each.
func WriteTrace(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		if err := ev.Validate(); err != nil {
			return err
		}
		line, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// TraceArrivals converts a decoded trace into the simulator's arrival
// stream, sorted by (time, file order). Feeding the result to Run replays
// the recorded traffic against any candidate configuration.
func TraceArrivals(events []TraceEvent) ([]Arrival, error) {
	out := make([]Arrival, 0, len(events))
	for i, ev := range events {
		if err := ev.Validate(); err != nil {
			return nil, fmt.Errorf("trace event %d: %w", i, err)
		}
		class := route.ClassStandard
		if ev.SLO != "" {
			class, _ = route.ParseClass(ev.SLO)
		}
		out = append(out, Arrival{
			At: ev.at(), Model: ev.Model, Class: class,
			C: ev.C, H: ev.H, W: ev.W,
		})
	}
	// Stable: equal-time events keep file order, matching the recorder's
	// observation order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// EventsFromArrivals converts a synthetic arrival stream into trace events
// (the inverse of TraceArrivals), so generated workloads can be saved and
// shared in the same format servd records.
func EventsFromArrivals(arrivals []Arrival) []TraceEvent {
	out := make([]TraceEvent, 0, len(arrivals))
	for _, a := range arrivals {
		c, h, w := a.C, a.H, a.W
		if c < 1 {
			c = 1
		}
		if h < 1 {
			h = 1
		}
		if w < 1 {
			w = 1
		}
		out = append(out, TraceEvent{
			TMS:   float64(a.At) / float64(time.Millisecond),
			Model: a.Model, SLO: a.Class.String(), C: c, H: h, W: w,
		})
	}
	return out
}
