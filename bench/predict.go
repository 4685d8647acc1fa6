package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/metrics"
	"drainnas/internal/tensor"
)

const (
	// steadyRate is predict_steady's offered load in requests/second —
	// about 40 % of what the router→servd path sustains on the 2-core box
	// the benchmark was sized on, so nothing queues.
	steadyRate = 10.0
	// steadySenders is the open loop's connection pool. It is sized to the
	// tenant tier's slots rather than to the core count: senders sleep or
	// wait on the socket, and with fewer of them than requests in flight
	// the generator itself would queue arrivals.
	steadySenders = 8
	// tenantInflight is the router's -tenant-inflight.
	tenantInflight = 8
)

// closedClients is predict_closed's client count, C = min(nproc, 4).
func closedClients() int { return min(runtime.NumCPU(), 4) }

// predictWorkload is predict_steady (open loop, one model, one tenant) or
// predict_closed (closed loop, four serving keys, two tenants).
type predictWorkload struct{ closed bool }

func (w predictWorkload) name() string {
	if w.closed {
		return "predict_closed"
	}
	return "predict_steady"
}

// predictRun is a booted router→servd pair with everything the generator
// needs to drive and check it.
type predictRun struct {
	w        predictWorkload
	e        *env
	dir      string
	modelDir string
	keyFile  string
	chips    []chip
	variants []variant
	refs     *references
	servd    *child
	router   *child
	clients  []*http.Client
}

func (w predictWorkload) setup(e *env) (instance, error) {
	dir, err := e.workDir()
	if err != nil {
		return nil, err
	}
	r := &predictRun{w: w, e: e, dir: dir, modelDir: filepath.Join(dir, "models"), keyFile: filepath.Join(dir, "keys.json")}
	if err := r.boot(); err != nil {
		return nil, errors.Join(err, r.close())
	}
	return r, nil
}

func (r *predictRun) boot() error {
	if err := os.Mkdir(r.modelDir, 0o755); err != nil {
		return err
	}
	if err := exportModel(r.modelDir, "front32", front32); err != nil {
		return err
	}
	r.variants = []variant{newVariant("front32", "fp32", tenantSurvey)}
	if r.w.closed {
		if err := exportModel(r.modelDir, "stock64", stock64); err != nil {
			return err
		}
		r.variants = nil
		for _, model := range []string{"front32", "stock64"} {
			for _, prec := range []string{"fp32", "int8"} {
				for _, tn := range []tenantDef{tenantSurvey, tenantBulk} {
					r.variants = append(r.variants, newVariant(model, prec, tn))
				}
			}
		}
	}
	var err error
	if r.chips, err = makeChips(r.e.seed); err != nil {
		return err
	}
	if r.refs, err = computeReferences(r.modelDir, r.keys(), r.chips); err != nil {
		return err
	}
	if err := writeKeyFile(r.keyFile, tenantSurvey, tenantBulk); err != nil {
		return err
	}

	if r.servd, err = startChild("servd", filepath.Join(r.e.binDir, "servd"), "-models", r.modelDir); err != nil {
		return err
	}
	routerArgs := []string{"-replicas", "0", "-backends", r.servd.url(),
		"-keys", r.keyFile, "-tenant-inflight", strconv.Itoa(tenantInflight)}
	senders := steadySenders
	if r.w.closed {
		senders = closedClients()
		routerArgs = append(routerArgs, "-sched", "priority", "-max-inflight", strconv.Itoa(senders))
	}
	if r.router, err = startChild("router", filepath.Join(r.e.binDir, "router"), routerArgs...); err != nil {
		return err
	}

	// One keep-alive connection per sender.
	r.clients = make([]*http.Client, senders)
	for i := range r.clients {
		r.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return r.warmUp()
}

// keys lists the distinct serving keys of the variants, fp32 before int8
// so the reference timing of the quantisation can subtract the load.
func (r *predictRun) keys() []string {
	var keys []string
	seen := map[string]bool{}
	for _, v := range r.variants {
		if !seen[v.key()] {
			seen[v.key()] = true
			keys = append(keys, v.key())
		}
	}
	return keys
}

// warmUp sends every variant once on every connection: the sockets are
// open, the models loaded, quantised and packed, and the arenas built
// before the clock starts.
func (r *predictRun) warmUp() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t := r.httpTarget()
	for s := range r.clients {
		for v := range r.variants {
			o := op{chip: (s + v) % len(r.chips), variant: v}
			status, body, err := t.send(ctx, s, o)
			if err == nil {
				err = t.check(o, status, body)
			}
			if err != nil {
				return fmt.Errorf("bench: warm-up request: %w", err)
			}
		}
	}
	return nil
}

func (r *predictRun) close() error {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	err := stopAll(r.router, r.servd)
	return errors.Join(err, os.RemoveAll(r.dir))
}

// httpTarget drives the real router over loopback.
type httpTarget struct {
	r   *predictRun
	url string
}

func (r *predictRun) httpTarget() httpTarget {
	return httpTarget{r: r, url: r.router.url() + "/v1/predict"}
}

func (t httpTarget) send(ctx context.Context, sender int, o op) (int, []byte, error) {
	v := t.r.variants[o.variant]
	body, n := v.body(t.r.chips[o.chip])
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url, body)
	if err != nil {
		return 0, nil, err
	}
	req.ContentLength = n
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+v.tenant.key)
	resp, err := t.r.clients[sender].Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

func (t httpTarget) check(o op, status int, body []byte) error { return t.r.check(o, status, body) }

// check holds an answer to the reference: a 200 whose logits equal what
// infer.Plan.Forward gave on the same chip at set-up, and whose model and
// precision echo the request.
func (r *predictRun) check(o op, status int, body []byte) error {
	v := r.variants[o.variant]
	if status != http.StatusOK {
		return fmt.Errorf("%s chip %d: status %d: %.200s", v.key(), o.chip, status, body)
	}
	var resp api.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s chip %d: undecodable answer: %w", v.key(), o.chip, err)
	}
	// The precision echo is not held to the request: route.HTTPReplica
	// rebuilds serve.Response.Model from the replica's bare model name, so
	// the router answers "fp32" for an int8 request it served correctly
	// (README, "Findings"). The int8 reference logits below are what prove
	// the quantised plan ran.
	if resp.Model != v.model {
		return fmt.Errorf("%s chip %d: answered as model %s", v.key(), o.chip, resp.Model)
	}
	if want := r.refs.logits[v.key()][o.chip]; !logitsMatch(resp.Logits, want) {
		return fmt.Errorf("%s chip %d: logits %v, reference %v", v.key(), o.chip, resp.Logits, want)
	}
	return nil
}

// drive runs one phase of the workload's load model against t.
func (r *predictRun) drive(t target, phase time.Duration) loadSummary {
	ctx, cancel := context.WithTimeout(context.Background(), phase+time.Minute)
	defer cancel()
	rng := tensor.NewRNG(r.e.seed ^ 0xA11CE)
	if r.w.closed {
		pick := func(rng *tensor.RNG) op {
			return op{chip: rng.Intn(len(r.chips)), variant: rng.Intn(len(r.variants))}
		}
		return summarize(closedLoop(ctx, t, closedClients(), phase, rng.Uint64(), pick))
	}
	due := arrivals(rng, int(steadyRate*phase.Seconds()+0.5), phase)
	ops := make([]op, len(due))
	for i := range ops {
		ops[i] = op{chip: rng.Intn(len(r.chips))}
	}
	return summarize(openLoop(ctx, t, steadySenders, due, ops))
}

func (s loadSummary) counts() counts {
	return counts{attempted: s.sent, failed: s.failed, firstErr: s.firstErr}
}

// measure is the untraced run: the real binaries, end-to-end metrics only.
func (r *predictRun) measure(phase time.Duration, rep *report) (counts, error) {
	s := r.drive(r.httpTarget(), phase)
	if err := s.guard(phase); err != nil {
		return s.counts(), err
	}
	rep.set("latency_p50_ms", quiet(windowMedians(s.ends, s.latencyMS, predictWindow), lowerIsBetter))
	if r.w.closed {
		rep.set("throughput_per_s", quiet(windowRates(s.okEnds, phase, predictWindow), higherIsBetter))
	} else {
		// Goodput: correct answers inside the latency limit per second of
		// the phase. The offered count is fixed, so this is the SLO share
		// times the offered rate.
		rep.set("throughput_per_s", float64(s.withinSLO)/max(phase, s.lastEnd).Seconds())
	}
	return s.counts(), nil
}

// scrape reads both children's /v1/stats and /proc usage.
type scrape struct {
	router api.RouterStats
	servd  api.ServdStats
	ru, su procUsage
}

func (r *predictRun) scrape() (scrape, error) {
	var sc scrape
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := getJSON(ctx, r.router.url()+"/v1/stats", &sc.router); err != nil {
		return sc, err
	}
	if err := getJSON(ctx, r.servd.url()+"/v1/stats", &sc.servd); err != nil {
		return sc, err
	}
	var err error
	if sc.ru, err = r.router.usage(); err != nil {
		return sc, err
	}
	sc.su, err = r.servd.usage()
	return sc, err
}

// trace is the traced run: half the phase against the real binaries for the
// counters only they have, half through the in-process mirror for spans,
// then the direct probes.
func (r *predictRun) trace(phase time.Duration, rep *report) (counts, error) {
	before, err := r.scrape()
	if err != nil {
		return counts{}, err
	}
	real := r.drive(r.httpTarget(), phase/2)
	after, err := r.scrape()
	if err != nil {
		return real.counts(), err
	}
	if err := real.guard(phase / 2); err != nil {
		return real.counts(), err
	}

	loadgenLayer(rep, real)
	rep.set("loadgen.lateness_p95_ms", percentile(real.latenessMS, 0.95))
	rep.set("loadgen.slo_share", float64(real.withinSLO)/float64(real.sent))

	rs0, rs1 := before.router.Router, after.router.Router
	rep.set("route.decide_p50_ms", histP50MS(rs0.Decide, rs1.Decide))
	var gate0, gate1 metrics.HistogramSnapshot
	for cls, c := range rs1.PerClass {
		gate0, gate1 = histMerge(gate0, rs0.PerClass[cls].QueueWait), histMerge(gate1, c.QueueWait)
	}
	rep.set("route.gate_wait_p50_ms", histP50MS(gate0, gate1))
	rep.set("route.hedges", float64(rs1.HedgesLaunched-rs0.HedgesLaunched))
	rep.set("route.retries", float64(rs1.Retries-rs0.Retries))
	var wait0, wait1 metrics.HistogramSnapshot
	var quota uint64
	if tn := after.router.Tenant; tn != nil {
		for name, t1 := range tn.PerTenant {
			var t0 metrics.TenantBreakdown
			if before.router.Tenant != nil {
				t0 = before.router.Tenant.PerTenant[name]
			}
			wait0, wait1 = histMerge(wait0, t0.QueueWait), histMerge(wait1, t1.QueueWait)
			quota += t1.QuotaExceeded - t0.QuotaExceeded
		}
	}
	rep.set("tenant.queue_wait_p50_ms", histP50MS(wait0, wait1))
	rep.set("tenant.quota_exceeded", float64(quota))
	reqs := float64(real.sent)
	rep.set("router.cpu_ms_per_req", ms(after.ru.cpu-before.ru.cpu)/reqs)
	rep.set("router.peak_rss_mb", after.ru.peakRSSMB)
	rep.set("servd.cpu_ms_per_req", ms(after.su.cpu-before.su.cpu)/reqs)
	rep.set("servd.peak_rss_mb", after.su.peakRSSMB)
	serveLayer(rep, before.servd, after.servd)

	m, err := newMirror(r)
	if err != nil {
		return real.counts(), err
	}
	traced := r.drive(m, phase/2)
	spans := m.tr.spans()
	m.close()
	if err := writeTrace(r.e.root, r.w.name(), r.e.seed, spans); err != nil {
		return real.counts(), err
	}
	ts := summarizeTrace(spans, spanRequest)
	rep.set("api.decode_ms", median(ts.durMS[spanDecode]))
	rep.set("api.encode_resp_ms", median(ts.durMS[spanEncode]))
	rep.set("tenant.wrap_self_ms", median(ts.selfMS[spanTenant]))
	rep.set("route.submit_self_ms", median(ts.selfMS[spanGate]))
	rep.set("route.http_replica_self_ms", median(ts.selfMS[spanReplica]))
	traceLayer(rep, ts, median(real.latencyMS))

	c := real.counts()
	c.attempted += traced.sent
	c.failed += traced.failed
	if c.firstErr == nil {
		c.firstErr = traced.firstErr
	}

	apiProbe(rep, r.chips)
	inferProbe(rep, r.refs.plans["front32"], r.chips)
	if int8 := r.refs.plans["front32@int8"]; int8 != nil {
		rep.set("infer.forward_int8_b1_ms", forwardMS(int8, r.chips))
	}
	rep.set("infer.load_plan_ms", ms(r.refs.loadPlan))
	rep.set("infer.quantize_ms", ms(r.refs.quantize))
	convFwdProbe(rep)
	return c, nil
}

// loadgenLayer reports the generator's own counters and the tail
// percentiles that are too noisy on a shared box to gate on.
func loadgenLayer(rep *report, s loadSummary) {
	rep.set("loadgen.sent", float64(s.sent))
	rep.set("loadgen.ok", float64(s.ok))
	rep.set("loadgen.failed", float64(s.failed))
	rep.set("loadgen.latency_p95_ms", percentile(s.latencyMS, 0.95))
	rep.set("loadgen.latency_p99_ms", percentile(s.latencyMS, 0.99))
}

// serveLayer reports the batcher's counters over the window between two
// scrapes of servd's /v1/stats.
func serveLayer(rep *report, before, after api.ServdStats) {
	s0, s1 := before.Serving, after.Serving
	rep.set("serve.queue_wait_p50_ms", histP50MS(s0.QueueWait, s1.QueueWait))
	rep.set("serve.exec_p50_ms", histP50MS(s0.Exec, s1.Exec))
	batches := float64(s1.Batches - s0.Batches)
	rep.set("serve.batches", batches)
	if batches > 0 {
		// mean_batch is cumulative; recover the batch-size sum on each side.
		rep.set("serve.batch_size_mean", (s1.MeanBatch*float64(s1.Batches)-s0.MeanBatch*float64(s0.Batches))/batches)
	}
	rep.set("serve.rejected", float64(s1.Rejected-s0.Rejected))
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	if lookups := hits + float64(after.Cache.Misses-before.Cache.Misses); lookups > 0 {
		rep.set("serve.cache_hit_share", hits/lookups)
	}
}

// traceLayer reports what the spans cost and how far the traced replay is
// from the untraced run of the same operation.
func traceLayer(rep *report, ts traceSummary, untracedP50MS float64) {
	e2e := median(ts.rootMS)
	rep.set("trace.spans", float64(ts.count))
	rep.set("trace.e2e_p50_ms", e2e)
	rep.set("trace.self_sum_share", ts.selfSumShare())
	if untracedP50MS > 0 {
		rep.set("trace.overhead_share", (e2e-untracedP50MS)/untracedP50MS)
	}
}
