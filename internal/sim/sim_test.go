package sim

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"drainnas/internal/latmeter"
	"drainnas/internal/route"
)

// testModels is a small fleet of service models with distinct costs: the
// fp32 key is 4x the work of its int8 sibling, and "slow" dominates both.
func testModels() map[string]latmeter.ServiceModel {
	return map[string]latmeter.ServiceModel{
		"paper":      {PerItemMS: 4.0, PerBatchMS: 1.0},
		"paper@int8": {PerItemMS: 1.6, PerBatchMS: 1.0},
		"slow":       {PerItemMS: 20.0, PerBatchMS: 2.0},
	}
}

func testWorkload(seed uint64) Workload {
	return Workload{
		Seed:     seed,
		Duration: 2 * time.Second,
		Clients: []Client{
			{
				Name: "interactive", RateRPS: 120, Dist: DistPoisson,
				Class: route.ClassInteractive, C: 5, H: 128, W: 128,
				Models: []ModelShare{{Key: "paper@int8", Weight: 1}},
			},
			{
				Name: "batch", RateRPS: 60, Dist: DistGamma, Shape: 0.5,
				Class: route.ClassBatch, C: 5, H: 128, W: 128,
				Models: []ModelShare{{Key: "paper", Weight: 0.7}, {Key: "slow", Weight: 0.3}},
			},
		},
	}
}

// TestSimDeterminism is the core acceptance property: the same seed yields a
// byte-identical report (Render text and JSON), and a different seed does
// not.
func TestSimDeterminism(t *testing.T) {
	cfg := Config{
		Replicas: 2, Workers: 2, MaxInFlight: 64, Sched: route.Priority,
		AdmitRate: 500, AdmitBurst: 50, Models: testModels(),
		Policy: route.PolicyLeastLoaded, Horizon: 2 * time.Second, NetworkMS: 0.2,
	}
	run := func(seed uint64) (string, string) {
		arr, err := testWorkload(seed).Arrivals()
		if err != nil {
			t.Fatalf("arrivals: %v", err)
		}
		rep, err := Run(cfg, arr)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return rep.Render(), string(js)
	}

	txt1, js1 := run(42)
	txt2, js2 := run(42)
	if txt1 != txt2 {
		t.Fatalf("same seed rendered differently:\n--- a ---\n%s--- b ---\n%s", txt1, txt2)
	}
	if js1 != js2 {
		t.Fatal("same seed produced different JSON")
	}
	txt3, _ := run(43)
	if txt1 == txt3 {
		t.Fatal("different seeds produced identical reports (suspicious)")
	}
}

// TestSimMoreReplicasHelp checks the capacity-planning signal: under an
// overloaded single replica, adding replicas must not make p99 worse and
// must strictly improve it somewhere along the sweep.
func TestSimMoreReplicasHelp(t *testing.T) {
	arr, err := testWorkload(7).Arrivals()
	if err != nil {
		t.Fatalf("arrivals: %v", err)
	}
	var prev float64 = math.Inf(1)
	improved := false
	for _, n := range []int{1, 2, 4} {
		rep, err := Run(Config{Replicas: n, Workers: 1, Models: testModels(), Horizon: 2 * time.Second}, arr)
		if err != nil {
			t.Fatalf("run replicas=%d: %v", n, err)
		}
		if rep.Completed != rep.Arrived {
			t.Fatalf("replicas=%d: %d of %d completed (no admission control configured)", n, rep.Completed, rep.Arrived)
		}
		if rep.Latency.P99MS > prev*1.001 {
			t.Fatalf("replicas=%d p99 %.2fms worse than previous %.2fms", n, rep.Latency.P99MS, prev)
		}
		if rep.Latency.P99MS < prev*0.9 {
			improved = true
		}
		prev = rep.Latency.P99MS
	}
	if !improved {
		t.Fatal("p99 never improved across the replica sweep; the fleet model is inert")
	}
}

// TestSimBatchingAmortizes checks the MaxDelay/MaxBatch semantics carry the
// amortization: under heavy load batches form (> 1 mean), and the int8 key
// runs faster than fp32.
func TestSimBatchingAmortizes(t *testing.T) {
	arr, err := testWorkload(11).Arrivals()
	if err != nil {
		t.Fatalf("arrivals: %v", err)
	}
	rep, err := Run(Config{Replicas: 1, Workers: 1, MaxBatch: 8, MaxDelay: 2 * time.Millisecond,
		Models: testModels(), Horizon: 2 * time.Second}, arr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.MeanBatch <= 1.0 {
		t.Fatalf("mean batch %.2f under saturation, want > 1 (batching inert)", rep.MeanBatch)
	}
	var fp32, int8 QuantileSet
	for _, m := range rep.Models {
		switch m.Model {
		case "paper":
			fp32 = m.Latency
		case "paper@int8":
			int8 = m.Latency
		}
	}
	if fp32.Count == 0 || int8.Count == 0 {
		t.Fatalf("missing per-model sections: %+v", rep.Models)
	}
	if int8.P50MS >= fp32.P50MS {
		t.Fatalf("int8 p50 %.2fms not faster than fp32 %.2fms", int8.P50MS, fp32.P50MS)
	}
}

// TestSimSingleRequestLatency pins the arithmetic end to end: one request on
// an idle replica is cut at once and pays the batch-1 service time plus
// network overhead; one that holds its group waits out MaxDelay first.
func TestSimSingleRequestLatency(t *testing.T) {
	for _, tc := range []struct {
		hold bool
		want float64
	}{
		{false, 5.5}, // (1.0 + 1*4.0)ms service + 0.5ms network
		{true, 7.5},  // MaxDelay 2ms + (1.0 + 1*4.0)ms service + 0.5ms network
	} {
		arr := []Arrival{{At: 0, Model: "paper", Class: route.ClassStandard, C: 5, H: 128, W: 128, Hold: tc.hold}}
		rep, err := Run(Config{MaxDelay: 2 * time.Millisecond, Models: testModels(), NetworkMS: 0.5}, arr)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if math.Abs(rep.Latency.P50MS-tc.want) > 1e-6 {
			t.Fatalf("single-request latency (hold %v) %.4fms, want %.4fms", tc.hold, rep.Latency.P50MS, tc.want)
		}
	}
	// A full batch cuts immediately: 8 simultaneous held arrivals skip
	// MaxDelay.
	var burst []Arrival
	for i := 0; i < 8; i++ {
		burst = append(burst, Arrival{At: 0, Model: "paper", Class: route.ClassStandard, Hold: true})
	}
	rep, err := Run(Config{MaxBatch: 8, MaxDelay: time.Second, Models: testModels()}, burst)
	if err != nil {
		t.Fatalf("run burst: %v", err)
	}
	want := 1.0 + 8*4.0 // no MaxDelay wait, no network
	if math.Abs(rep.Latency.P50MS-want) > 1e-6 {
		t.Fatalf("full-batch latency %.4fms, want %.4fms", rep.Latency.P50MS, want)
	}
	if rep.MeanBatch != 8 {
		t.Fatalf("mean batch %.2f, want 8", rep.MeanBatch)
	}
}

// TestSimFreedSlotCutsWaitingGroup: an arrival that finds the only slot
// busy waits in its group, and the slot, freed with nothing parked, cuts
// that group at once, as serve.Server's does, instead of leaving it to
// MaxDelay.
func TestSimFreedSlotCutsWaitingGroup(t *testing.T) {
	arr := []Arrival{
		{At: 0, Model: "slow", C: 5, H: 64, W: 64},
		{At: time.Millisecond, Model: "paper", C: 5, H: 64, W: 64},
	}
	models := testModels()
	rep, err := Run(Config{Workers: 1, MaxDelay: time.Second, Models: models}, arr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || len(rep.Models) != 2 {
		t.Fatalf("completed %d across %d models, want 2 across 2", rep.Completed, len(rep.Models))
	}
	slow, paper := models["slow"].BatchMS(1), models["paper"].BatchMS(1)
	for _, m := range rep.Models {
		want := slow
		if m.Model == "paper" {
			want = slow - 1 + paper // queued behind slow from t=1ms, then served
		}
		if math.Abs(m.Latency.P50MS-want) > 1e-6 {
			t.Fatalf("%s latency %.4fms, want %.4fms", m.Model, m.Latency.P50MS, want)
		}
	}
}

// TestSimAdmissionControl checks both admission stages: the token bucket
// throttles past its rate, and QueueCap rejects when a replica saturates.
func TestSimAdmissionControl(t *testing.T) {
	var burst []Arrival
	for i := 0; i < 100; i++ {
		burst = append(burst, Arrival{At: time.Duration(i) * time.Microsecond, Model: "paper"})
	}
	rep, err := Run(Config{AdmitRate: 10, AdmitBurst: 20, Models: testModels(), Horizon: time.Second}, burst)
	if err != nil {
		t.Fatalf("run throttle: %v", err)
	}
	if rep.Throttled < 70 || rep.Throttled > 90 {
		t.Fatalf("throttled %d of 100 with burst 20, want ~80", rep.Throttled)
	}

	rep, err = Run(Config{QueueCap: 16, MaxBatch: 4, Models: testModels(), Horizon: time.Second}, burst)
	if err != nil {
		t.Fatalf("run queuecap: %v", err)
	}
	if rep.Rejected == 0 {
		t.Fatal("QueueCap 16 under a 100-burst never rejected")
	}
	if rep.Completed+rep.Rejected != rep.Arrived {
		t.Fatalf("accounting leak: %d completed + %d rejected != %d arrived",
			rep.Completed, rep.Rejected, rep.Arrived)
	}
}

// TestSimSchedOrderAtGate checks the MaxInFlight gate honors the scheduling
// mode: with one slot and priority scheduling, an interactive arrival parked
// behind earlier batch arrivals completes first.
func TestSimSchedOrderAtGate(t *testing.T) {
	arrivals := []Arrival{
		{At: 0, Model: "slow", Class: route.ClassBatch},
		{At: time.Millisecond, Model: "paper", Class: route.ClassBatch},
		{At: 2 * time.Millisecond, Model: "paper", Class: route.ClassBatch},
		{At: 3 * time.Millisecond, Model: "paper", Class: route.ClassInteractive},
	}
	rep, err := Run(Config{MaxInFlight: 1, Sched: route.Priority, MaxDelay: time.Millisecond,
		Models: testModels()}, arrivals)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var interactive, batch QuantileSet
	for _, c := range rep.Classes {
		switch c.Class {
		case "interactive":
			interactive = c.Latency
		case "batch":
			batch = c.Latency
		}
	}
	// The interactive request must overtake the two parked batch requests:
	// its queueing delay is one slow batch, theirs is slow + interactive.
	if interactive.MaxMS >= batch.MaxMS {
		t.Fatalf("interactive max %.2fms did not beat batch max %.2fms under priority gate",
			interactive.MaxMS, batch.MaxMS)
	}
}

// TestSimNeverBatchesAcrossChipSizes is the regression test for the
// simulator forming batches per model where serve.Server forms them per
// (model, H, W): four simultaneous requests for one model, alternating two
// chip sizes and each holding its group, fill a MaxBatch-4 batch only if
// sizes mix. They must instead form two batches of two, each flushed by its
// own MaxDelay timer — and the same four requests at one size still fill
// the batch.
func TestSimNeverBatchesAcrossChipSizes(t *testing.T) {
	run := func(sizes [4]int) ReplicaReport {
		t.Helper()
		var arrivals []Arrival
		for i, hw := range sizes {
			arrivals = append(arrivals, Arrival{At: time.Duration(i) * time.Microsecond, Model: "paper", C: 5, H: hw, W: hw, Hold: true})
		}
		rep, err := Run(Config{MaxBatch: 4, MaxDelay: 2 * time.Millisecond, Models: testModels()}, arrivals)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if rep.Completed != 4 {
			t.Fatalf("completed %d of 4", rep.Completed)
		}
		return rep.ReplicaStats[0]
	}
	if got := run([4]int{64, 128, 64, 128}); got.Batches != 2 || got.MeanBatch != 2 {
		t.Fatalf("two chip sizes interleaved: %d batches of mean size %.1f, want 2 of 2 (a batch mixed sizes)",
			got.Batches, got.MeanBatch)
	}
	if got := run([4]int{128, 128, 128, 128}); got.Batches != 1 || got.MeanBatch != 4 {
		t.Fatalf("one chip size: %d batches of mean size %.1f, want 1 of 4", got.Batches, got.MeanBatch)
	}
}

// TestSimUnknownModelErrors checks the upfront validation names the key.
func TestSimUnknownModelErrors(t *testing.T) {
	_, err := Run(Config{Models: testModels()}, []Arrival{{Model: "ghost"}})
	if err == nil {
		t.Fatal("unknown model key accepted")
	}
}

// TestWorkloadDistributions checks each interarrival family hits its target
// mean rate and ranks burstiness as expected (Gamma shape 0.5 burstier than
// Poisson, Weibull shape 2 smoother).
func TestWorkloadDistributions(t *testing.T) {
	const rate, dur = 200.0, 30 * time.Second
	cv := func(d Dist, shape float64) (float64, int) {
		w := Workload{Seed: 5, Duration: dur, Clients: []Client{{
			Name: "c", RateRPS: rate, Dist: d, Shape: shape,
			Models: []ModelShare{{Key: "m", Weight: 1}},
		}}}
		arr, err := w.Arrivals()
		if err != nil {
			t.Fatalf("%v arrivals: %v", d, err)
		}
		var gaps []float64
		prev := time.Duration(0)
		for _, a := range arr {
			gaps = append(gaps, (a.At - prev).Seconds())
			prev = a.At
		}
		mean, ss := 0.0, 0.0
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		for _, g := range gaps {
			ss += (g - mean) * (g - mean)
		}
		return math.Sqrt(ss/float64(len(gaps))) / mean, len(arr)
	}

	cvP, nP := cv(DistPoisson, 0)
	cvG, _ := cv(DistGamma, 0.5)
	cvW, _ := cv(DistWeibull, 2)

	wantN := rate * dur.Seconds()
	if math.Abs(float64(nP)-wantN) > 0.1*wantN {
		t.Fatalf("poisson produced %d arrivals, want ~%.0f", nP, wantN)
	}
	if cvP < 0.9 || cvP > 1.1 {
		t.Fatalf("poisson interarrival CV %.2f, want ~1", cvP)
	}
	if cvG < 1.2 {
		t.Fatalf("gamma(0.5) CV %.2f, want > 1.2 (burstier than poisson)", cvG)
	}
	if cvW > 0.8 {
		t.Fatalf("weibull(2) CV %.2f, want < 0.8 (smoother than poisson)", cvW)
	}
}

// TestWorkloadValidation checks the generator rejects malformed clients.
func TestWorkloadValidation(t *testing.T) {
	bad := []Workload{
		{Duration: time.Second, Clients: []Client{{Name: "r", RateRPS: 0, Models: []ModelShare{{Key: "m", Weight: 1}}}}},
		{Duration: time.Second, Clients: []Client{{Name: "m", RateRPS: 1}}},
		{Duration: time.Second, Clients: []Client{{Name: "w", RateRPS: 1, Models: []ModelShare{{Key: "m", Weight: -1}}}}},
		{Duration: time.Second, Clients: []Client{{Name: "z", RateRPS: 1, Models: []ModelShare{{Key: "m", Weight: 0}}}}},
	}
	for i, w := range bad {
		if _, err := w.Arrivals(); err == nil {
			t.Errorf("workload %d accepted, want error", i)
		}
	}
}

// TestLoopOrdering pins the event loop's total order: time first, schedule
// order within a tick, past events clamped to now.
func TestLoopOrdering(t *testing.T) {
	l := NewLoop()
	var got []int
	l.At(2*time.Millisecond, func() { got = append(got, 2) })
	l.At(time.Millisecond, func() {
		got = append(got, 1)
		l.At(0, func() { got = append(got, 10) }) // past: clamps to now, runs before t=2ms
		l.After(0, func() { got = append(got, 11) })
	})
	l.At(2*time.Millisecond, func() { got = append(got, 3) })
	l.Run(0)
	want := []int{1, 10, 11, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if l.Now() != 2*time.Millisecond {
		t.Fatalf("clock at %v, want 2ms", l.Now())
	}
	l.Run(5 * time.Millisecond)
	if l.Now() != 5*time.Millisecond {
		t.Fatalf("clock at %v after horizon run, want 5ms", l.Now())
	}
}
