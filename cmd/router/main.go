// Command router is the cluster-scale front tier over the batching
// inference servers: it spreads /v1/predict traffic across a replica fleet
// through a pluggable placement policy, with token-bucket admission, SLO-
// class-aware dispatch ordering, and hedged retries that cancel the losing
// attempt. Replicas are either in-process serving cores sharing this
// process (-replicas N over one model directory) or remote servd instances
// reached over HTTP (-backends url,url,...), interchangeable behind the
// same routing tier.
//
// The /v1/ surface, its error envelope, the -keys tenant tier and the
// SIGTERM drain are internal/frontend's, shared with cmd/servd, so clients
// and probes move between tiers unchanged; the routes and codes are listed
// in internal/api (and the README). What is the router's own: a predict
// answer names its "replica" (and "hedged" when the hedge won), the "slo"
// class orders dispatch under -max-inflight, scan tiles fan across the
// fleet under the job's class, /v1/stats is an api.RouterStats (routing
// counters per policy/class/replica plus the fleet's aggregated serving
// counters), /v1/healthz reports fleet size and policy, and two error
// codes: throttled (429, -rate admission) and no_replicas (503).
//
// With -sched sjf the dispatch order needs per-model latency estimates
// before any traffic has flowed; the router seeds them by lowering each
// deployed model's compiled plan into latmeter's kernel graph and pricing
// it on the -predict-device cost model, then refines with a measured EWMA.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"

	"drainnas/internal/api"
	"drainnas/internal/frontend"
	"drainnas/internal/infer"
	"drainnas/internal/latmeter"
	"drainnas/internal/metrics"
	"drainnas/internal/route"
	"drainnas/internal/scan"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

func main() {
	cfg, so := frontend.Flags(flag.CommandLine, "127.0.0.1:8090", "per-replica: ")
	var (
		models      = flag.String("models", ".", "directory of exported .dnnx model containers (local replicas)")
		replicas    = flag.Int("replicas", 3, "in-process serving replicas (0 with -backends for a pure proxy tier)")
		backends    = flag.String("backends", "", "comma-separated base URLs of remote servd replicas")
		policyName  = flag.String("policy", route.PolicyRoundRobin, "placement policy: round-robin, least-loaded or affinity")
		schedName   = flag.String("sched", "fcfs", "dispatch order under -max-inflight: fcfs, priority or sjf")
		maxInflight = flag.Int("max-inflight", 0, "bound on concurrently dispatched requests (0 = unlimited)")
		hedgeAfter  = flag.Duration("hedge-after", 0, "launch a hedge attempt on a second replica after this long (0 = off)")
		retryErr    = flag.Bool("retry-on-error", false, "redispatch retryable replica errors to an untried replica")
		rate        = flag.Float64("rate", 0, "token-bucket admission rate in requests/second (0 = unlimited)")
		burst       = flag.Float64("burst", 1, "token-bucket burst capacity")
		device      = flag.String("predict-device", "", "latmeter device for seeding sjf latency estimates (empty = no seed)")
		predictSize = flag.Int("predict-size", latmeter.DefaultInputSize, "image side assumed for latency seeding")
	)
	flag.Parse()

	policy, err := route.PolicyByName(*policyName)
	if err != nil {
		log.Fatalf("router: %v", err)
	}
	sched, err := route.ParseSchedMode(*schedName)
	if err != nil {
		log.Fatalf("router: %v", err)
	}
	seeds, err := seedEstimates(*device, *models, *predictSize)
	if err != nil {
		log.Fatalf("router: %v", err)
	}

	// The HTTP replicas share one transport that keeps as many idle
	// connections per backend as the router lets requests through at once;
	// http.DefaultClient keeps 2 and redials for the rest.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = max(*maxInflight, cfg.TenantInflight, http.DefaultMaxIdleConnsPerHost)
	client := &http.Client{Transport: transport}
	var remote []route.Replica
	for _, base := range strings.Split(*backends, ",") {
		base = strings.TrimSpace(strings.TrimSuffix(base, "/"))
		if base != "" {
			remote = append(remote, route.NewHTTPReplica("", base, client))
		}
	}
	if *replicas <= 0 && len(remote) == 0 {
		log.Fatalf("router: no replicas (-replicas 0 and no -backends)")
	}
	t := newTier(*models, *replicas, *so, route.Options{
		Policy:         policy,
		Sched:          sched,
		MaxInFlight:    *maxInflight,
		HedgeAfter:     *hedgeAfter,
		RetryOnError:   *retryErr,
		Rate:           *rate,
		Burst:          *burst,
		EstimateSeedMS: seeds,
	}, remote...)

	detail := fmt.Sprintf("%d local + %d remote replicas, policy %s, sched %s",
		len(t.locals), len(remote), policy.Name(), sched)
	if err := frontend.Serve(t, *cfg, detail); err != nil {
		log.Fatalf("router: %v", err)
	}
}

// seedEstimates prices every deployed model's compiled plan on the named
// latmeter device, giving the SJF scheduler latency estimates before the
// first request. Each model is seeded in both precisions — the fp32 key
// from its cost graph directly, and the "@int8" key from the same graph
// under latmeter's int8 cost scale — so a quantized request is ordered by
// its cheaper cost from the first dispatch. Both are the batch-1 service
// time, Service(g).BatchMS(1), the number the simulator ranks SJF by. An
// empty device name disables
// seeding (estimates then start at 0 and come entirely from the measured
// EWMA).
func seedEstimates(device, modelDir string, inputSize int) (map[string]float64, error) {
	if device == "" {
		return nil, nil
	}
	dev, err := latmeter.DeviceByName(device)
	if err != nil {
		return nil, err
	}
	keys, err := serve.ListModels(modelDir)
	if err != nil {
		return nil, fmt.Errorf("seeding estimates: %w", err)
	}
	loader := serve.DirLoader(modelDir)
	seeds := make(map[string]float64, 2*len(keys))
	for _, key := range keys {
		plan, err := loader(key)
		if err != nil {
			return nil, fmt.Errorf("seeding estimates: %s: %w", key, err)
		}
		g, err := plan.CostGraph(inputSize)
		if err != nil {
			// A model that cannot run at this input size simply goes
			// unseeded; the EWMA takes over once real traffic sizes it.
			log.Printf("router: not seeding %s: %v", key, err)
			continue
		}
		seeds[key] = dev.Service(g).BatchMS(1)
		seeds[infer.ModelKey(key, infer.PrecisionInt8)] = dev.Service(g.Int8()).BatchMS(1)
	}
	return seeds, nil
}

// tier is the router as a frontend.Tier: a route.Router plus the local
// replicas this process owns.
type tier struct {
	router *route.Router
	// serving is shared by every local replica so the fleet's serving
	// counters aggregate into one exposition; the per-replica traffic
	// split comes from the router's own counters.
	serving  *metrics.ServingStats
	locals   []*route.LocalReplica
	modelDir string
}

// newTier builds n local replicas over modelDir, each configured by so,
// and routes over them and the remote replicas under opts.
func newTier(modelDir string, n int, so serve.Options, opts route.Options, remote ...route.Replica) *tier {
	t := &tier{serving: &metrics.ServingStats{}, modelDir: modelDir}
	so.Stats = t.serving
	var reps []route.Replica
	for i := 0; i < n; i++ {
		lr := route.NewLocalReplica(fmt.Sprintf("local-%d", i), serve.NewServer(serve.DirLoader(modelDir), so))
		t.locals = append(t.locals, lr)
		reps = append(reps, lr)
	}
	t.router = route.New(opts, append(reps, remote...)...)
	return t
}

func (t *tier) Name() string { return "router" }

func (t *tier) Submit(ctx context.Context, class route.SLOClass, key string, input *tensor.Tensor) (route.Response, error) {
	return t.router.SubmitClass(ctx, class, key, input)
}

func (t *tier) ScanBackend(class route.SLOClass) scan.Backend {
	return scan.RouterBackend{R: t.router, Class: class}
}

func (t *tier) Stats(sec frontend.Sections) any {
	reps := t.router.Replicas()
	ids := make([]string, len(reps))
	for i, rep := range reps {
		ids[i] = rep.ID()
	}
	return api.RouterStats{
		Router:   t.router.Stats().Snapshot(),
		Serving:  t.Serving(),
		Replicas: ids,
		Policy:   t.router.Policy().Name(),
		Waiting:  t.router.Waiting(),
		Scan:     sec.Scan,
		Tenant:   sec.Tenant,
		Fair:     sec.Fair,
	}
}

func (t *tier) Health() api.HealthResponse {
	reps := t.router.Replicas()
	if len(reps) == 0 {
		return api.HealthResponse{Status: "degraded", Error: "no replicas"}
	}
	// A pure proxy tier has no local model directory: Models stays empty.
	keys, _ := serve.ListModels(t.modelDir)
	return api.HealthResponse{Status: "ok", Replicas: len(reps), Policy: t.router.Policy().Name(), Models: keys}
}

func (t *tier) Serving() metrics.ServingSnapshot { return t.serving.Snapshot() }

// Close drains the router, then the serving cores it owns.
func (t *tier) Close() {
	t.router.Close()
	for _, lr := range t.locals {
		lr.Server().Close()
	}
}
