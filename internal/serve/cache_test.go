package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drainnas/internal/infer"
	"drainnas/internal/metrics"
)

func TestCacheLoadsOnceAndHits(t *testing.T) {
	loader, loads := testLoader(t)
	c := NewModelCache(4, loader)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt, err := c.Get("a")
			if err != nil || rt == nil {
				t.Errorf("get: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := loads.Load(); got != 1 {
		t.Fatalf("loader ran %d times for one key, want 1", got)
	}
	st := c.Stats()
	if st.Len != 1 || st.Misses != 1 || st.Hits != 7 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	loader, loads := testLoader(t)
	c := NewModelCache(2, loader)
	mustGet := func(key string) {
		t.Helper()
		if _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	mustGet("a")
	mustGet("b")
	mustGet("a") // refresh a: b is now LRU
	mustGet("c") // evicts b
	if got := loads.Load(); got != 3 {
		t.Fatalf("%d loads before re-get, want 3", got)
	}
	mustGet("b") // must reload
	if got := loads.Load(); got != 4 {
		t.Fatalf("%d loads after re-get of evicted key, want 4", got)
	}
	st := c.Stats()
	if st.Len != 2 || st.Evictions < 2 {
		t.Fatalf("stats %+v, want len 2 and >=2 evictions", st)
	}
}

func TestCacheFailedLoadIsRetried(t *testing.T) {
	container := tinyContainer(t, 7)
	var calls atomic.Int64
	boom := errors.New("transient")
	c := NewModelCache(2, func(key string) (*infer.Plan, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return infer.LoadPlan(bytes.NewReader(container))
	})
	if _, err := c.Get("a"); !errors.Is(err, boom) {
		t.Fatalf("first get err %v, want transient error", err)
	}
	if rt, err := c.Get("a"); err != nil || rt == nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("loader calls %d, want 2", calls.Load())
	}
}

func TestCachePanickingLoaderIsContained(t *testing.T) {
	c := NewModelCache(1, func(key string) (*infer.Plan, error) {
		panic("loader exploded")
	})
	if _, err := c.Get("a"); err == nil {
		t.Fatal("panicking loader produced no error")
	}
}

// TestCacheEvictionUnderServingLoad drives more distinct models than the
// cache holds through a live server: every request must still be answered
// correctly while entries churn.
func TestCacheEvictionUnderServingLoad(t *testing.T) {
	loader, _ := testLoader(t)
	stats := &metrics.ServingStats{}
	s := NewServer(loader, Options{
		MaxBatch: 4, MaxDelay: 500 * time.Microsecond,
		CacheCap: 2, Workers: 4, QueueCap: 512, Stats: stats,
	})
	defer s.Close()

	const goroutines = 6
	const perG = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				model := fmt.Sprintf("model-%d", (g+i)%5)
				if _, err := s.Submit(context.Background(), model, testInput(uint64(g*50+i))); err != nil {
					t.Errorf("goroutine %d req %d (%s): %v", g, i, model, err)
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Cache().Stats()
	if st.Len > 2 {
		t.Fatalf("cache grew past its capacity: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("5 models through a 2-slot cache evicted nothing: %+v", st)
	}
	if snap := stats.Snapshot(); snap.Completed != goroutines*perG {
		t.Fatalf("completed %d, want %d (%+v)", snap.Completed, goroutines*perG, snap)
	}
}
