package metrics

import (
	"fmt"
	"strings"
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
		t.Fatalf("counters wrong: %s", snap)
	}
	if snap.QueueDepth != 0 || snap.MaxQueueDepth != 3 {
		t.Fatalf("depth %d max %d, want 0/3", snap.QueueDepth, snap.MaxQueueDepth)
	}
	if snap.Batches != 1 || snap.MeanBatch != 2 || snap.MaxBatch != 2 {
		t.Fatalf("batch stats wrong: %s", snap)
	}
	if snap.MeanLatencyMS != 10 || snap.MaxLatencyMS != 15 || snap.MeanQueueWaitMS != 3 {
		t.Fatalf("latency stats wrong: %s", snap)
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
		t.Fatalf("nil snapshot %s", snap)
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
		t.Fatalf("accounting broken: %s", snap)
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

func TestServingSnapshotString(t *testing.T) {
	s := &ServingStats{}
	s.Enqueued("m")
	s.Completed("m", time.Millisecond, 2*time.Millisecond)
	if str := s.Snapshot().String(); !strings.Contains(str, "done=1") {
		t.Fatalf("snapshot string %q", str)
	}
}
