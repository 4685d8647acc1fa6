package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. The stage names are the ones ROADMAP item 5 will later emit
// from inside the programs, so the two can be laid side by side.
const (
	spanRequest    = "request"       // root: one predict through the whole mirror
	spanTenant     = "tenant_wait"   // tenant.Tier.Wrap: auth, quota, peekClass, fair queue
	spanRouterAPI  = "router"        // the router's /v1/predict handler body
	spanServdAPI   = "servd"         // servd's /v1/predict handler body
	spanDecode     = "decode"        // JSON body → PredictRequest → tensor
	spanEncode     = "encode"        // response struct → JSON
	spanGate       = "gate_wait"     // route.Router.SubmitClass: bucket, gate, placement
	spanReplica    = "replica"       // route.HTTPReplica.Submit: re-marshal + loopback + unmarshal
	spanQueue      = "replica_queue" // serve.Server.Submit, the part Response.Queued covers
	spanExec       = "exec"          // serve.Server.Submit, the rest
	spanJob        = "job"           // root: one scan.Run
	spanSource     = "source"        // scan.NewSource
	spanClassify   = "classify"      // scan.Backend.Classify
	spanEmit       = "emit"          // the scan's event callback
	spanSweep      = "sweep"         // root: one core.Run
	spanTrial      = "trial"         // nas.TrainEvaluator.Evaluate
	spanSurrogate  = "surrogate"     // nas.SurrogateEvaluator.Evaluate
	spanExperiment = "experiment"    // root: one nas.Experiment
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Start and End are nanoseconds on the tracer's clock; spans of one
// operation share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	done []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanCtxKey struct{}

// spanRef is what flows down the call chain: who the parent is.
type spanRef struct{ id, op int64 }

// open is a started span.
type open struct {
	t *tracer
	s span
}

// start opens a span under the span ctx carries; with none it starts a new
// operation. The returned context carries the new span.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *open) {
	parent, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return t.startUnder(ctx, parent, name)
}

func (t *tracer) startUnder(ctx context.Context, parent spanRef, name string) (context.Context, *open) {
	id := t.next.Add(1)
	op := parent.op
	if op == 0 {
		op = id
	}
	o := &open{t: t, s: span{ID: id, Parent: parent.id, Op: op, Name: name, Start: int64(time.Since(t.t0))}}
	return context.WithValue(ctx, spanCtxKey{}, spanRef{id: id, op: op}), o
}

func (o *open) end() { o.endAt(time.Since(o.t.t0)) }

func (o *open) endAt(at time.Duration) {
	o.s.End = int64(at)
	o.t.mu.Lock()
	o.t.done = append(o.t.done, o.s)
	o.t.mu.Unlock()
}

// record adds an already-measured interval as a child of ctx's span.
func (t *tracer) record(ctx context.Context, name string, start, end time.Duration) {
	_, o := t.start(ctx, name)
	o.s.Start = int64(start)
	o.endAt(end)
}

// reset forgets the spans recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.done = nil
	t.mu.Unlock()
}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.done...)
}

// The in-process mirror crosses one real socket (HTTPReplica → servd
// handler); the parent span crosses it in a header.
const spanHeader = "X-Bench-Span"

// spanTransport stamps outgoing requests with the span their context
// carries, so the handler on the far side can continue the operation.
type spanTransport struct{ base http.RoundTripper }

func (st spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanCtxKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.op, ref.id))
	}
	return st.base.RoundTrip(r)
}

func spanFromHeader(r *http.Request) spanRef {
	var ref spanRef
	_, _ = fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &ref.op, &ref.id)
	return ref
}

// traceSummary is the arithmetic over a finished trace. An operation is a
// root span and everything under it; only operations whose root has the
// name given to summarizeTrace count towards rootMS and selfMS.
type traceSummary struct {
	count int
	// rootMS is the duration of every such root span.
	rootMS []float64
	// selfMS[name] holds, per operation, the summed self time of the spans
	// with that name: a span's duration minus what its children cover.
	selfMS map[string][]float64
	// durMS[name] holds the duration of every span with that name, in any
	// operation.
	durMS map[string][]float64
}

func summarizeTrace(spans []span, root string) traceSummary {
	ts := traceSummary{count: len(spans), selfMS: map[string][]float64{}, durMS: map[string][]float64{}}
	children := make(map[int64][]interval, len(spans))
	counted := map[int64]bool{} // operations under a root of the right name
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{time.Duration(s.Start), time.Duration(s.End)})
		} else if s.Name == root {
			counted[s.Op] = true
			ts.rootMS = append(ts.rootMS, ms(time.Duration(s.End-s.Start)))
		}
	}
	type opName struct {
		op   int64
		name string
	}
	perOp := map[opName]time.Duration{}
	for _, s := range spans {
		iv := interval{time.Duration(s.Start), time.Duration(s.End)}
		ts.durMS[s.Name] = append(ts.durMS[s.Name], ms(iv.end-iv.start))
		if counted[s.Op] {
			perOp[opName{s.Op, s.Name}] += selfTime(iv, children[s.ID])
		}
	}
	for k, d := range perOp {
		ts.selfMS[k.name] = append(ts.selfMS[k.name], ms(d))
	}
	return ts
}

// selfSumShare is the sum over span names of the median per-operation self
// time, as a share of the median root duration: 1 when the spans account
// for the whole operation, more when children ran in parallel.
func (ts traceSummary) selfSumShare() float64 {
	e2e := median(ts.rootMS)
	if e2e == 0 {
		return 0
	}
	var sum float64
	for _, xs := range ts.selfMS {
		sum += median(xs)
	}
	return sum / e2e
}

// writeTrace stores the spans under <build>/out for later inspection.
func writeTrace(root, workload string, seed uint64, spans []span) error {
	dir := filepath.Join(buildDir(root), "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
