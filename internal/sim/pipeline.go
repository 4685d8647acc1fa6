package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"drainnas/internal/latmeter"
	"drainnas/internal/route"
	"drainnas/internal/sched"
)

// Policy selects how the simulated router places a request on a replica.
type Policy int

// The simulated placement policies (the deterministic subset of
// internal/route's policy set; affinity degenerates to a static partition
// under a fixed fleet, so round-robin and least-loaded are the interesting
// capacity-planning shapes).
const (
	PolicyRoundRobin Policy = iota
	PolicyLeastLoaded
)

// String names the policy as accepted by -policy.
func (p Policy) String() string {
	if p == PolicyLeastLoaded {
		return "least-loaded"
	}
	return "round-robin"
}

// ParsePolicy maps the flag name to a policy; empty means round-robin.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "round-robin", "rr":
		return PolicyRoundRobin, nil
	case "least-loaded", "ll":
		return PolicyLeastLoaded, nil
	default:
		return PolicyRoundRobin, fmt.Errorf("sim: unknown policy %q (want round-robin or least-loaded)", s)
	}
}

// Config describes the simulated deployment: the same knobs cmd/servd and
// cmd/router expose, plus the per-model service models that stand in for
// plan execution.
type Config struct {
	// Replicas is the fleet size; Workers the per-replica execution pool.
	Replicas int
	Workers  int

	// MaxBatch / MaxDelay / QueueCap are serve.Options' fields: a batch of
	// one (model, H, W) flushes at MaxBatch requests or MaxDelay after its
	// first, and each replica admits at most QueueCap unfinished requests.
	MaxBatch int
	MaxDelay time.Duration
	QueueCap int

	// Policy places requests on replicas.
	Policy Policy

	// AdmitRate / AdmitBurst configure router token-bucket admission
	// (tokens per second / bucket size, a burst below 1 is raised to 1
	// exactly as route.Options.Burst is); AdmitRate <= 0 disables it.
	AdmitRate, AdmitBurst float64
	// MaxInFlight bounds concurrently dispatched requests at the router
	// gate, granted in Sched order; 0 = unlimited.
	MaxInFlight int
	Sched       route.SchedMode

	// Models maps each serving key the workload references (including
	// "@int8" keys) to its service model, typically latmeter's
	// Device.Service over the model's cost graph.
	Models map[string]latmeter.ServiceModel
	// WorkScale / OverheadScale are the calibration knobs applied to every
	// service model (see Calibrate); <= 0 means 1.
	WorkScale, OverheadScale float64
	// NetworkMS is a fixed per-request overhead added to every completed
	// request's latency (transport + envelope cost outside the replica).
	NetworkMS float64

	// Horizon is the nominal workload duration, used as the denominator
	// floor for throughput and utilization; the simulation itself always
	// drains every admitted request.
	Horizon time.Duration

	// OnComplete, when set, observes every completed request (serving key,
	// end-to-end latency) in completion order — the hook fixture generation
	// and external collectors use. It must not mutate simulator state.
	OnComplete func(model string, latency time.Duration)
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.WorkScale <= 0 {
		c.WorkScale = 1
	}
	if c.OverheadScale <= 0 {
		c.OverheadScale = 1
	}
	return c
}

// groupKey identifies one batchable stream, as in serve: same model, same
// spatial size.
type groupKey struct {
	model string
	h, w  int
}

type batchSim struct {
	model string
	reqs  []Arrival
}

// replicaSim models one serve.Server: bounded admission, the batch former
// serve.Server runs, a bounded worker pool executing service-model
// durations.
type replicaSim struct {
	id       string
	load     int // admitted-but-unfinished (QueueCap's denominator)
	former   *sched.Former[groupKey, Arrival]
	busy     int
	backlog  []*batchSim // cut batches waiting for a worker, FIFO
	requests uint64
	batches  uint64
	sizeSum  uint64
	busyMS   float64
}

// cluster is the whole simulated deployment plus its accounting.
type cluster struct {
	cfg  Config
	loop *Loop
	res  *collector

	// The router's admission bucket and dispatch gate, on virtual time.
	bucket sched.Bucket
	gate   *sched.Gate[Arrival]

	reps   []*replicaSim
	rrNext int
}

// Run simulates the arrival stream through the configured cluster and
// returns the deterministic report. Every model key the stream references
// must be present in cfg.Models.
func Run(cfg Config, arrivals []Arrival) (Report, error) {
	cfg = cfg.withDefaults()
	for _, a := range arrivals {
		if _, ok := cfg.Models[a.Model]; !ok {
			return Report{}, fmt.Errorf("sim: arrival references model %q with no service model", a.Model)
		}
	}

	slots := cfg.MaxInFlight
	if slots <= 0 {
		slots = math.MaxInt // unlimited: nothing ever parks at the gate
	}
	c := &cluster{
		cfg:    cfg,
		loop:   NewLoop(),
		res:    newCollector(),
		bucket: sched.NewBucket(cfg.AdmitRate, cfg.AdmitBurst, 0),
		gate:   sched.NewGate[Arrival](slots, cfg.Sched),
	}
	for i := 0; i < cfg.Replicas; i++ {
		c.reps = append(c.reps, &replicaSim{
			id:     fmt.Sprintf("replica-%d", i),
			former: sched.NewFormer[groupKey, Arrival](cfg.MaxBatch),
		})
	}

	for _, a := range arrivals {
		c.loop.At(a.At, func() { c.arrive(a) })
	}
	c.loop.Run(0) // drain: every admitted request completes

	end := c.loop.Now()
	if cfg.Horizon > end {
		end = cfg.Horizon
	}
	return c.res.report(cfg, c.reps, end), nil
}

// arrive runs the admission front: token bucket, then the scheduling gate.
func (c *cluster) arrive(r Arrival) {
	c.res.arrived(r)
	if !c.bucket.Allow(int64(c.loop.Now())) {
		c.res.throttled(r)
		return
	}
	// The SJF estimate is the model's batch-1 service prediction.
	if w, granted := c.gate.Acquire(r.Class, c.cfg.Models[r.Model].BatchMS(1)); !granted {
		w.Value = r
		return
	}
	c.place(r)
}

// place picks a replica by policy and joins its batcher.
func (c *cluster) place(r Arrival) {
	var rep *replicaSim
	switch c.cfg.Policy {
	case PolicyLeastLoaded:
		rep = c.reps[0]
		for _, cand := range c.reps[1:] {
			if cand.load < rep.load {
				rep = cand
			}
		}
	default:
		rep = c.reps[c.rrNext%len(c.reps)]
		c.rrNext++
	}

	if rep.load >= c.cfg.QueueCap {
		c.res.rejected(r)
		c.releaseGate(1)
		return
	}
	rep.load++
	rep.requests++

	key := groupKey{model: r.Model, h: r.H, w: r.W}
	batch, gen, fresh := rep.former.Add(key, r)
	if fresh {
		c.loop.After(c.cfg.MaxDelay, func() {
			if batch := rep.former.Expire(key, gen); batch != nil {
				c.cut(rep, key.model, batch)
			}
		})
	}
	if batch != nil {
		c.cut(rep, key.model, batch)
	}
}

// cut hands a formed batch to the worker pool (or the backlog when every
// worker is busy — the pool-saturation backpressure).
func (c *cluster) cut(rep *replicaSim, model string, reqs []Arrival) {
	b := &batchSim{model: model, reqs: reqs}
	if rep.busy < c.cfg.Workers {
		c.start(rep, b)
	} else {
		rep.backlog = append(rep.backlog, b)
	}
}

// start begins one stacked forward: its duration comes from the model's
// service coefficients under the calibration scales.
func (c *cluster) start(rep *replicaSim, b *batchSim) {
	rep.busy++
	sm := c.cfg.Models[b.model].Scaled(c.cfg.WorkScale, c.cfg.OverheadScale)
	durMS := sm.BatchMS(len(b.reqs))
	rep.busyMS += durMS
	c.loop.After(time.Duration(durMS*float64(time.Millisecond)), func() { c.complete(rep, b) })
}

// complete delivers a finished batch: per-request latencies, accounting,
// gate releases, and the next backlog batch if one is waiting.
func (c *cluster) complete(rep *replicaSim, b *batchSim) {
	rep.busy--
	rep.batches++
	rep.sizeSum += uint64(len(b.reqs))
	now := c.loop.Now()
	net := time.Duration(c.cfg.NetworkMS * float64(time.Millisecond))
	for _, r := range b.reqs {
		lat := now - r.At + net
		c.res.completed(r, b.model, len(b.reqs), lat)
		if c.cfg.OnComplete != nil {
			c.cfg.OnComplete(b.model, lat)
		}
	}
	rep.load -= len(b.reqs)
	c.releaseGate(len(b.reqs))
	if len(rep.backlog) > 0 && rep.busy < c.cfg.Workers {
		next := rep.backlog[0]
		rep.backlog = rep.backlog[1:]
		c.start(rep, next)
	}
}

// releaseGate returns n dispatch slots one at a time, placing the waiter
// each is granted to before the next slot frees.
func (c *cluster) releaseGate(n int) {
	for ; n > 0; n-- {
		if w := c.gate.Release(); w != nil {
			c.place(w.Value)
		}
	}
}

// collector accumulates per-request outcomes; quantiles are computed
// exactly from the sorted samples at report time, not through histogram
// buckets — the simulator is the ground truth calibration compares the
// bucketed measurements against.
type collector struct {
	overall  *bucketStats
	byClass  map[string]*bucketStats
	byModel  map[string]*bucketStats
	batchSum uint64
	batchN   uint64
}

type bucketStats struct {
	arrived, throttled, rejected, completed uint64
	latMS                                   []float64
}

func newCollector() *collector {
	return &collector{
		overall: &bucketStats{},
		byClass: make(map[string]*bucketStats),
		byModel: make(map[string]*bucketStats),
	}
}

func (c *collector) class(a Arrival) *bucketStats {
	k := a.Class.String()
	b := c.byClass[k]
	if b == nil {
		b = &bucketStats{}
		c.byClass[k] = b
	}
	return b
}

func (c *collector) model(key string) *bucketStats {
	b := c.byModel[key]
	if b == nil {
		b = &bucketStats{}
		c.byModel[key] = b
	}
	return b
}

func (c *collector) arrived(a Arrival)   { c.overall.arrived++; c.class(a).arrived++ }
func (c *collector) throttled(a Arrival) { c.overall.throttled++; c.class(a).throttled++ }
func (c *collector) rejected(a Arrival)  { c.overall.rejected++; c.class(a).rejected++ }

func (c *collector) completed(a Arrival, model string, batch int, lat time.Duration) {
	ms := float64(lat) / float64(time.Millisecond)
	c.overall.completed++
	c.overall.latMS = append(c.overall.latMS, ms)
	cb := c.class(a)
	cb.completed++
	cb.latMS = append(cb.latMS, ms)
	mb := c.model(model)
	mb.completed++
	mb.latMS = append(mb.latMS, ms)
	c.batchSum += uint64(batch)
	c.batchN++
}

func (c *collector) report(cfg Config, reps []*replicaSim, end time.Duration) Report {
	rep := Report{
		DurationMS: float64(end) / float64(time.Millisecond),
		Replicas:   cfg.Replicas,
		Arrived:    c.overall.arrived,
		Throttled:  c.overall.throttled,
		Rejected:   c.overall.rejected,
		Completed:  c.overall.completed,
		Latency:    summarize(c.overall.latMS),
	}
	if end > 0 {
		rep.ThroughputRPS = float64(c.overall.completed) / end.Seconds()
	}
	if c.batchN > 0 {
		rep.MeanBatch = float64(c.batchSum) / float64(c.batchN)
	}
	for _, k := range sortedKeys(c.byClass) {
		b := c.byClass[k]
		rep.Classes = append(rep.Classes, ClassReport{
			Class: k, Arrived: b.arrived, Throttled: b.throttled,
			Rejected: b.rejected, Completed: b.completed,
			Latency: summarize(b.latMS),
		})
	}
	for _, k := range sortedKeys(c.byModel) {
		b := c.byModel[k]
		rep.Models = append(rep.Models, ModelReport{
			Model: k, Completed: b.completed, Latency: summarize(b.latMS),
		})
	}
	for _, r := range reps {
		rr := ReplicaReport{ID: r.id, Requests: r.requests, Batches: r.batches}
		if r.batches > 0 {
			rr.MeanBatch = float64(r.sizeSum) / float64(r.batches)
		}
		if end > 0 && cfg.Workers > 0 {
			rr.Utilization = r.busyMS / (float64(end) / float64(time.Millisecond) * float64(cfg.Workers))
		}
		rep.ReplicaStats = append(rep.ReplicaStats, rr)
	}
	return rep
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
