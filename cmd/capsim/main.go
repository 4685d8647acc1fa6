// Command capsim answers serving capacity questions without hardware: it
// simulates the servd/router pipeline (admission, SLO scheduling, batching,
// plan execution) over a synthetic workload or a recorded -trace file, using
// internal/latmeter's analytic cost models for service times, and prints
// latency quantiles, goodput and per-replica utilization — deterministically,
// so the same seed always prints the same bytes.
//
//	capsim -rate 200 -duration 5s -replicas 2
//	capsim -sweep replicas=1..8 -target-p99 50ms
//	capsim -trace served.jsonl -calibrate stats.json -sweep replicas=1..4
//
// The capacity sweep prints one frontier line per fleet size and a verdict:
// the smallest fleet meeting the p99 target with (effectively) no load
// shedding. -calibrate fits the simulator's two service-time scales to a
// measured /v1/stats document first, reporting MAPE and Pearson r of
// simulated vs measured p50/p95/p99, then runs the sweep with the fitted
// scales.
//
// Models come from -models (a directory of exported .dnnx containers, each
// contributing its fp32 and @int8 serving keys via the compiled plan's cost
// graph) or default to the paper's stock ResNet-18 baseline as "paper" and
// "paper@int8".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"drainnas/internal/infer"
	"drainnas/internal/latmeter"
	"drainnas/internal/resnet"
	"drainnas/internal/route"
	"drainnas/internal/serve"
	"drainnas/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "capsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("capsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", 1, "workload RNG seed (same seed, same report bytes)")
		duration = fs.Duration("duration", 5*time.Second, "workload horizon")
		rate     = fs.Float64("rate", 100, "total offered load, requests/second")
		distName = fs.String("dist", "poisson", "interarrival distribution: poisson, gamma or weibull")
		shape    = fs.Float64("shape", 1, "gamma/weibull shape (ignored for poisson)")
		mix      = fs.String("mix", "paper=0.7,paper@int8=0.3", "model mix as key=weight,...")
		sloMix   = fs.String("slo", "standard=1", "SLO class mix as class=weight,... (interactive, standard, batch)")
		chip     = fs.String("chip", "5x128x128", "chip shape CxHxW submitted by every client")

		tracePath  = fs.String("trace", "", "replay this recorded JSONL trace instead of generating a workload")
		recordPath = fs.String("record", "", "save the generated workload as a JSONL trace and exit")

		scanTiles  = fs.Int("scan-tiles", 0, "generate a scan-shaped workload of this many tiles instead of random traffic (first -mix model, first -slo class)")
		scanWindow = fs.Int("scan-window", 8, "with -scan-tiles: the scan's in-flight tile window")
		scanPace   = fs.Duration("scan-pace", 2*time.Millisecond, "with -scan-tiles: per-tile completion pace once the window is full")

		modelDir = fs.String("models", "", "directory of .dnnx containers (default: built-in stock ResNet-18 as \"paper\")")
		device   = fs.String("device", "cortexA76cpu", "latmeter device predictor for service times")

		calibrate = fs.String("calibrate", "", "fit service-time scales to this measured /v1/stats JSON before simulating")
		workScale = fs.Float64("work-scale", 1, "per-item service-time scale (overridden by -calibrate)")
		overScale = fs.Float64("overhead-scale", 1, "per-batch overhead scale (overridden by -calibrate)")

		replicas  = fs.Int("replicas", 1, "fleet size (ignored when -sweep is set)")
		sweep     = fs.String("sweep", "", "capacity sweep, e.g. replicas=1..8")
		targetP99 = fs.Duration("target-p99", 0, "p99 target for the sweep verdict, e.g. 50ms")

		workers     = fs.Int("workers", 1, "batches executing at once per replica")
		maxBatch    = fs.Int("max-batch", 8, "flush a batch at this many requests")
		maxDelay    = fs.Duration("max-delay", 2*time.Millisecond, "flush a non-empty batch after this delay")
		queueCap    = fs.Int("queue", 256, "per-replica admission queue capacity")
		maxInFlight = fs.Int("max-inflight", 0, "router dispatch concurrency bound (0 = unlimited)")
		schedName   = fs.String("sched", "fcfs", "gate scheduling: fcfs, priority or sjf")
		policyName  = fs.String("policy", route.PolicyRoundRobin, "placement policy: round-robin, least-loaded or affinity")
		admitRate   = fs.Float64("admit-rate", 0, "token-bucket admission rate, req/s (0 = off)")
		admitBurst  = fs.Float64("admit-burst", 1, "token-bucket burst capacity (default 1, as router -burst; below 1 is raised to 1)")
		networkMS   = fs.Float64("network-ms", 0, "fixed per-request network overhead, milliseconds")

		jsonOut = fs.Bool("json", false, "emit the report as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	c, h, w, err := parseChip(*chip)
	if err != nil {
		return err
	}
	shares, err := parseShares(*mix)
	if err != nil {
		return fmt.Errorf("-mix: %w", err)
	}
	classShares, err := parseShares(*sloMix)
	if err != nil {
		return fmt.Errorf("-slo: %w", err)
	}
	dist, err := sim.ParseDist(*distName)
	if err != nil {
		return err
	}
	sched, err := route.ParseSchedMode(*schedName)
	if err != nil {
		return err
	}
	if _, err := route.PolicyByName(*policyName); err != nil {
		return err
	}

	// The arrival stream: replayed from a trace, or generated per -slo with
	// one client per class so each carries its own class and stream.
	var arrivals []sim.Arrival
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		events, rerr := sim.ReadTrace(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
		if arrivals, err = sim.TraceArrivals(events); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "replaying %d recorded arrivals from %s\n", len(arrivals), *tracePath)
	} else if *scanTiles > 0 {
		class, err := route.ParseClass(classShares[0].Key)
		if err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
		sw := sim.ScanWorkload{
			Model: shares[0].Key, Class: class,
			Tiles: *scanTiles, Window: *scanWindow, Pace: *scanPace,
			C: c, S: h,
		}
		if arrivals, err = sw.Arrivals(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "scan workload: %d tiles of %s, window %d, pace %s\n",
			*scanTiles, sw.Model, *scanWindow, *scanPace)
	} else {
		var clients []sim.Client
		for _, cs := range classShares {
			class, err := route.ParseClass(cs.Key)
			if err != nil {
				return fmt.Errorf("-slo: %w", err)
			}
			clients = append(clients, sim.Client{
				Name: cs.Key, RateRPS: *rate * cs.Weight, Dist: dist, Shape: *shape,
				Class: class, Models: shares, C: c, H: h, W: w,
			})
		}
		wl := sim.Workload{Clients: clients, Duration: *duration, Seed: *seed}
		if arrivals, err = wl.Arrivals(); err != nil {
			return err
		}
	}

	if *recordPath != "" {
		f, err := os.Create(*recordPath)
		if err != nil {
			return err
		}
		if err := sim.WriteTrace(f, sim.EventsFromArrivals(arrivals)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %d arrivals to %s\n", len(arrivals), *recordPath)
		return nil
	}

	// Price cost graphs at the chip size the traffic actually carries: the
	// -chip flag for generated workloads, the recorded shape for replays.
	inputSize := h
	if *tracePath != "" && len(arrivals) > 0 {
		inputSize = arrivals[0].H
	}
	models, err := buildModels(*modelDir, *device, inputSize, arrivals)
	if err != nil {
		return err
	}

	cfg := sim.Config{
		Replicas: *replicas, Workers: *workers,
		MaxBatch: *maxBatch, MaxDelay: *maxDelay, QueueCap: *queueCap,
		Policy: *policyName, Sched: sched, MaxInFlight: *maxInFlight,
		AdmitRate: *admitRate, AdmitBurst: *admitBurst,
		Models: models, WorkScale: *workScale, OverheadScale: *overScale,
		NetworkMS: *networkMS, Horizon: *duration,
	}

	if *calibrate != "" {
		f, err := os.Open(*calibrate)
		if err != nil {
			return err
		}
		measured, perr := sim.ParseStatsQuantiles(f)
		f.Close()
		if perr != nil {
			return perr
		}
		cal, err := sim.Calibrate(cfg, arrivals, measured)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "calibration: work-scale %.3f, overhead-scale %.3f -> MAPE %.2f%%, pearson r %.4f over %d quantile points\n",
			cal.WorkScale, cal.OverheadScale, cal.MAPEPercent, cal.PearsonR, cal.Points)
		cfg.WorkScale, cfg.OverheadScale = cal.WorkScale, cal.OverheadScale
	}

	if *sweep != "" {
		lo, hi, err := parseSweep(*sweep)
		if err != nil {
			return err
		}
		return runSweep(stdout, cfg, arrivals, lo, hi, *targetP99, *jsonOut)
	}

	rep, err := sim.Run(cfg, arrivals)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprint(stdout, rep.Render())
	if *targetP99 > 0 {
		printVerdict(stdout, rep.Replicas, rep, *targetP99)
	}
	return nil
}

// frontierRow is one sweep point, also the -json sweep element.
type frontierRow struct {
	Replicas      int     `json:"replicas"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Goodput       float64 `json:"goodput"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	MeanUtil      float64 `json:"mean_utilization"`
	Meets         bool    `json:"meets_target,omitempty"`
}

// runSweep simulates each fleet size in [lo, hi] over the same arrival
// stream and prints the capacity frontier plus the verdict for -target-p99.
func runSweep(stdout io.Writer, cfg sim.Config, arrivals []sim.Arrival, lo, hi int, target time.Duration, jsonOut bool) error {
	var rows []frontierRow
	verdict := 0
	for n := lo; n <= hi; n++ {
		c := cfg
		c.Replicas = n
		rep, err := sim.Run(c, arrivals)
		if err != nil {
			return err
		}
		util := 0.0
		for _, r := range rep.ReplicaStats {
			util += r.Utilization
		}
		if len(rep.ReplicaStats) > 0 {
			util /= float64(len(rep.ReplicaStats))
		}
		row := frontierRow{
			Replicas: n, ThroughputRPS: rep.ThroughputRPS, Goodput: rep.GoodputFraction(),
			P50MS: rep.Latency.P50MS, P95MS: rep.Latency.P95MS, P99MS: rep.Latency.P99MS,
			MeanUtil: util,
		}
		row.Meets = meetsTarget(rep, target)
		if row.Meets && verdict == 0 {
			verdict = n
		}
		rows = append(rows, row)
	}

	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"frontier": rows, "verdict_replicas": verdict})
	}
	fmt.Fprintf(stdout, "capacity frontier (%d arrivals over %s):\n", len(arrivals), time.Duration(cfg.Horizon).String())
	fmt.Fprintf(stdout, "%-9s %10s %9s %10s %10s %10s %7s\n",
		"replicas", "rps", "goodput", "p50", "p95", "p99", "util")
	for _, r := range rows {
		mark := " "
		if target > 0 && r.Meets {
			mark = "*"
		}
		fmt.Fprintf(stdout, "%-9d %10.1f %8.1f%% %8.2fms %8.2fms %8.2fms %6.1f%% %s\n",
			r.Replicas, r.ThroughputRPS, 100*r.Goodput, r.P50MS, r.P95MS, r.P99MS, 100*r.MeanUtil, mark)
	}
	if target > 0 {
		targetMS := float64(target) / float64(time.Millisecond)
		if verdict > 0 {
			fmt.Fprintf(stdout, "verdict: %d replica(s) meet p99 <= %.0fms with full goodput\n", verdict, targetMS)
		} else {
			fmt.Fprintf(stdout, "verdict: no fleet size in %d..%d meets p99 <= %.0fms\n", lo, hi, targetMS)
		}
	}
	return nil
}

// meetsTarget is the verdict predicate: p99 under target with effectively
// no shedding (allowing one-in-a-thousand rejects under bursty admission).
func meetsTarget(rep sim.Report, target time.Duration) bool {
	if target <= 0 {
		return false
	}
	return rep.Completed > 0 &&
		rep.Latency.P99MS <= float64(target)/float64(time.Millisecond) &&
		rep.GoodputFraction() >= 0.999
}

func printVerdict(stdout io.Writer, replicas int, rep sim.Report, target time.Duration) {
	targetMS := float64(target) / float64(time.Millisecond)
	if meetsTarget(rep, target) {
		fmt.Fprintf(stdout, "verdict: %d replica(s) meet p99 <= %.0fms with full goodput\n", replicas, targetMS)
	} else {
		fmt.Fprintf(stdout, "verdict: %d replica(s) do NOT meet p99 <= %.0fms (p99 %.2fms, goodput %.1f%%)\n",
			replicas, targetMS, rep.Latency.P99MS, 100*rep.GoodputFraction())
	}
}

// buildModels assembles the service-model table the arrival stream needs:
// from a model directory (each container's compiled cost graph, and that
// graph at int8 under the "@int8" key — no plan is quantized to price one)
// or the built-in paper baseline. Only keys the stream references are
// required, so a trace recorded against a larger fleet still replays.
func buildModels(dir, deviceName string, inputSize int, arrivals []sim.Arrival) (map[string]latmeter.ServiceModel, error) {
	dev, err := latmeter.DeviceByName(deviceName)
	if err != nil {
		return nil, err
	}
	models := make(map[string]latmeter.ServiceModel)
	add := func(key string, g latmeter.Graph) {
		models[key] = dev.Service(g)
		models[infer.ModelKey(key, infer.PrecisionInt8)] = dev.Service(g.Int8())
	}
	if dir == "" {
		g, err := latmeter.Decompose(resnet.StockResNet18(5, 1), inputSize)
		if err != nil {
			return nil, err
		}
		add("paper", g)
	} else {
		keys, err := serve.ListModels(dir)
		if err != nil {
			return nil, err
		}
		load := serve.DirLoader(dir)
		for _, key := range keys {
			plan, err := load(key)
			if err != nil {
				return nil, fmt.Errorf("loading %s: %w", key, err)
			}
			g, err := plan.CostGraph(inputSize)
			if err != nil {
				return nil, fmt.Errorf("cost graph for %s: %w", key, err)
			}
			add(key, g)
		}
	}
	for _, a := range arrivals {
		if _, ok := models[a.Model]; !ok {
			return nil, fmt.Errorf("workload references model %q not in the model set (have %s)",
				a.Model, strings.Join(sortedModelKeys(models), ", "))
		}
	}
	return models, nil
}

func sortedModelKeys(m map[string]latmeter.ServiceModel) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// parseChip parses "CxHxW".
func parseChip(s string) (c, h, w int, err error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("-chip %q: want CxHxW", s)
	}
	dims := make([]int, 3)
	for i, p := range parts {
		dims[i], err = strconv.Atoi(p)
		if err != nil || dims[i] < 1 {
			return 0, 0, 0, fmt.Errorf("-chip %q: bad dimension %q", s, p)
		}
	}
	return dims[0], dims[1], dims[2], nil
}

// parseShares parses "key=weight,key=weight" into normalized shares.
func parseShares(s string) ([]sim.ModelShare, error) {
	var out []sim.ModelShare
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("bad share %q: want key=weight", part)
		}
		wt, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || wt < 0 {
			return nil, fmt.Errorf("bad weight in %q", part)
		}
		out = append(out, sim.ModelShare{Key: kv[0], Weight: wt})
		total += wt
	}
	if len(out) == 0 || total <= 0 {
		return nil, fmt.Errorf("empty share list %q", s)
	}
	for i := range out {
		out[i].Weight /= total
	}
	return out, nil
}

// parseSweep parses "replicas=LO..HI".
func parseSweep(s string) (lo, hi int, err error) {
	val, ok := strings.CutPrefix(s, "replicas=")
	if !ok {
		return 0, 0, fmt.Errorf("-sweep %q: want replicas=LO..HI", s)
	}
	bounds := strings.SplitN(val, "..", 2)
	if len(bounds) != 2 {
		return 0, 0, fmt.Errorf("-sweep %q: want replicas=LO..HI", s)
	}
	if lo, err = strconv.Atoi(bounds[0]); err != nil || lo < 1 {
		return 0, 0, fmt.Errorf("-sweep %q: bad lower bound", s)
	}
	if hi, err = strconv.Atoi(bounds[1]); err != nil || hi < lo {
		return 0, 0, fmt.Errorf("-sweep %q: bad upper bound", s)
	}
	if hi-lo > 63 {
		return 0, 0, fmt.Errorf("-sweep %q: spans %d sizes, max 64", s, hi-lo+1)
	}
	return lo, hi, nil
}
