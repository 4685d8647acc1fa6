package metrics_test

import (
	"encoding/json"
	"sync"
	"testing"

	. "drainnas/internal/metrics"
)

func TestKernelSnapshotCounts(t *testing.T) {
	var ks KernelStats
	ks.GemmCall()
	ks.GemmCall()
	ks.NaiveCall()
	ks.TilesDispatched(12)
	ks.TilesDispatched(3)
	ks.PackReused()
	ks.ScratchHit()
	ks.ScratchHit()
	ks.ScratchMiss()
	s := ks.Snapshot()
	if s.GemmCalls != 2 || s.NaiveCalls != 1 || s.TilesDispatched != 15 ||
		s.PacksReused != 1 || s.ScratchHits != 2 || s.ScratchMisses != 1 {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestKernelSnapshotJSONKeys(t *testing.T) {
	var ks KernelStats
	ks.GemmCall()
	raw, err := json.Marshal(ks.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]uint64
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"gemm_calls", "naive_calls", "tiles_dispatched",
		"packs_reused", "scratch_hits", "scratch_misses",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("snapshot JSON missing %q: %s", key, raw)
		}
	}
}

func TestKernelStatsConcurrent(t *testing.T) {
	var ks KernelStats
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ks.GemmCall()
				ks.TilesDispatched(2)
			}
		}()
	}
	wg.Wait()
	if s := ks.Snapshot(); s.GemmCalls != 800 || s.TilesDispatched != 1600 {
		t.Fatalf("lost updates: %+v", s)
	}
}
