package metrics

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestServingStatsLifecycle(t *testing.T) {
	s := &ServingStats{}
	s.Enqueued("a")
	s.Enqueued("a")
	s.Enqueued("b")
	s.Rejected("a")
	s.Canceled("b")
	s.Completed("a", 2*time.Millisecond, 5*time.Millisecond)
	s.Completed("a", 4*time.Millisecond, 15*time.Millisecond)
	s.BatchDone("a", 2, 3*time.Millisecond)

	snap := s.Snapshot()
	if snap.Accepted != 3 || snap.Rejected != 1 || snap.Canceled != 1 || snap.Completed != 2 {
		t.Fatalf("counters wrong: %+v", snap)
	}
	if snap.QueueDepth != 0 || snap.MaxQueueDepth != 3 {
		t.Fatalf("depth %d max %d, want 0/3", snap.QueueDepth, snap.MaxQueueDepth)
	}
	if snap.Batches != 1 || snap.MeanBatch != 2 || snap.MaxBatch != 2 {
		t.Fatalf("batch stats wrong: %+v", snap)
	}
	if snap.MeanLatencyMS != 10 || snap.MaxLatencyMS != 15 || snap.MeanQueueWaitMS != 3 {
		t.Fatalf("latency stats wrong: %+v", snap)
	}
	if snap.MeanExecMS != 3 {
		t.Fatalf("exec ms %v, want 3", snap.MeanExecMS)
	}
}

func TestServingStatsHistograms(t *testing.T) {
	s := &ServingStats{}
	for i := 0; i < 100; i++ {
		s.Enqueued("m")
		s.Completed("m", time.Millisecond, 10*time.Millisecond)
	}
	s.Enqueued("m")
	s.Completed("m", time.Millisecond, 100*time.Millisecond)
	s.BatchDone("m", 101, 7*time.Millisecond)

	snap := s.Snapshot()
	if snap.Latency.Count != 101 || snap.QueueWait.Count != 101 || snap.Exec.Count != 1 {
		t.Fatalf("histogram counts: lat=%d wait=%d exec=%d", snap.Latency.Count, snap.QueueWait.Count, snap.Exec.Count)
	}
	if snap.Latency.Max != 100*time.Millisecond {
		t.Fatalf("latency max %v", snap.Latency.Max)
	}
	// p50 of 100×10ms + 1×100ms sits in the 10ms bucket; p99+ approaches the
	// outlier. Log-spaced buckets give factor-√2 resolution.
	if p50 := snap.Latency.Quantile(0.50); p50 < 5*time.Millisecond || p50 > 15*time.Millisecond {
		t.Fatalf("p50 %v, want ≈10ms", p50)
	}
	if snap.Latency.P99MS <= snap.Latency.P50MS {
		t.Fatalf("p99 %.2f not above p50 %.2f with an outlier present", snap.Latency.P99MS, snap.Latency.P50MS)
	}
}

func TestServingStatsPerModel(t *testing.T) {
	s := &ServingStats{}
	s.Enqueued("fast")
	s.Completed("fast", time.Millisecond, 2*time.Millisecond)
	s.Enqueued("slow")
	s.Completed("slow", time.Millisecond, 200*time.Millisecond)
	s.Enqueued("slow")
	s.Failed("slow")
	s.Enqueued("gone")
	s.Canceled("gone")

	snap := s.Snapshot()
	if len(snap.PerModel) != 3 {
		t.Fatalf("per-model keys %v", snap.PerModel)
	}
	fast, slow, gone := snap.PerModel["fast"], snap.PerModel["slow"], snap.PerModel["gone"]
	if fast.Completed != 1 || fast.Accepted != 1 || fast.Latency.Count != 1 {
		t.Fatalf("fast %+v", fast)
	}
	if slow.Completed != 1 || slow.Failed != 1 || slow.Accepted != 2 {
		t.Fatalf("slow %+v", slow)
	}
	if gone.Canceled != 1 || gone.Latency.Count != 0 {
		t.Fatalf("gone %+v", gone)
	}
	if slow.Latency.Max != 200*time.Millisecond || fast.Latency.Max != 2*time.Millisecond {
		t.Fatalf("per-model latency mixed up: fast max %v, slow max %v", fast.Latency.Max, slow.Latency.Max)
	}
}

func TestServingStatsNilReceiverIsSafe(t *testing.T) {
	var s *ServingStats
	s.Enqueued("m")
	s.Rejected("m")
	s.Canceled("m")
	s.Failed("m")
	s.Completed("m", time.Millisecond, time.Millisecond)
	s.BatchDone("m", 1, time.Millisecond)
	if snap := s.Snapshot(); snap.Accepted != 0 {
		t.Fatalf("nil snapshot %+v", snap)
	}
}

func TestServingStatsConcurrent(t *testing.T) {
	s := &ServingStats{}
	const goroutines = 8
	const per = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			model := fmt.Sprintf("m%d", g%3)
			for i := 0; i < per; i++ {
				s.Enqueued(model)
				if i%2 == 0 {
					s.Completed(model, time.Microsecond, 2*time.Microsecond)
				} else {
					s.Canceled(model)
				}
				s.BatchDone(model, 1, time.Microsecond)
				_ = s.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Accepted != goroutines*per {
		t.Fatalf("accepted %d, want %d", snap.Accepted, goroutines*per)
	}
	if snap.Completed+snap.Canceled != snap.Accepted || snap.QueueDepth != 0 {
		t.Fatalf("accounting broken: %+v", snap)
	}
	if snap.Latency.Count != snap.Completed {
		t.Fatalf("latency histogram %d observations, completed %d", snap.Latency.Count, snap.Completed)
	}
	var perModel uint64
	for _, m := range snap.PerModel {
		perModel += m.Accepted
	}
	if perModel != snap.Accepted {
		t.Fatalf("per-model accepted sum %d != global %d", perModel, snap.Accepted)
	}
}

// TestDerivedMeansMatchAccumulators pins mean_queue_wait_ms,
// mean_latency_ms, max_latency_ms, mean_exec_ms and the sweep's
// mean_trial_ms, now read off the neighbouring histogram, to the values the
// dedicated sum/max accumulators they replaced produced for this exact event
// sequence — computed at the commit before the accumulators were removed,
// and compared bit for bit.
func TestDerivedMeansMatchAccumulators(t *testing.T) {
	sv := &ServingStats{}
	for i := 0; i < 7; i++ {
		sv.Enqueued("cnn-a")
		sv.Completed("cnn-a", time.Duration(i*137+13)*time.Microsecond, time.Duration(i*i*911+301)*time.Microsecond)
	}
	sv.Enqueued("cnn-b")
	sv.Failed("cnn-b")
	sv.Enqueued("cnn-b")
	sv.Canceled("cnn-b")
	sv.Enqueued("cnn-b")
	sv.Completed("cnn-b", 3*time.Nanosecond, 777777*time.Nanosecond)
	sv.Rejected("cnn-a")
	sv.BatchDone("cnn-a", 5, 2123*time.Microsecond)
	sv.BatchDone("cnn-a", 2, 977*time.Microsecond)
	sv.BatchDone("cnn-b", 1, 31*time.Microsecond)

	sw := &SweepStats{}
	sw.Begin(10, 2)
	sw.TrialDone(1234567 * time.Microsecond)
	sw.TrialDone(7654321 * time.Nanosecond)
	sw.TrialFailed(2 * time.Second)

	s := sv.Snapshot()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mean_queue_wait_ms", s.MeanQueueWaitMS, 0.371000375},
		{"mean_latency_ms", s.MeanLatencyMS, 10.723222125},
		{"max_latency_ms", s.MaxLatencyMS, 33.097},
		{"mean_exec_ms", s.MeanExecMS, 1.0436666666666665},
		{"mean_trial_ms", sw.Snapshot().MeanTrialMS, 1080.7404403333333},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s = %v (%#x), want %v (%#x)", c.name, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
	if empty := (&ServingStats{}).Snapshot(); empty.MeanLatencyMS != 0 || empty.MaxLatencyMS != 0 || empty.MeanExecMS != 0 {
		t.Errorf("derived fields of an empty sink: %+v", empty)
	}
}
