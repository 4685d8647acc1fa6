package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForChunkedPartition(t *testing.T) {
	// Chunks must be disjoint, contiguous, ordered by worker, and cover [0, n).
	for _, n := range []int{1, 5, 16, 97} {
		for _, workers := range []int{1, 2, 4, 7, 97, 200} {
			var mu atomic.Int64
			covered := make([]int32, n)
			ForChunked(n, workers, func(lo, hi int) {
				if lo >= hi {
					t.Errorf("empty chunk [%d,%d)", lo, hi)
				}
				mu.Add(int64(hi - lo))
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			})
			if mu.Load() != int64(n) {
				t.Fatalf("n=%d workers=%d: covered %d elements", n, workers, mu.Load())
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestForChunkedBalance(t *testing.T) {
	// Chunk sizes differ by at most one.
	n, workers := 103, 8
	sizes := make(chan int, workers)
	ForChunked(n, workers, func(lo, hi int) { sizes <- hi - lo })
	close(sizes)
	minSz, maxSz := n, 0
	for s := range sizes {
		if s < minSz {
			minSz = s
		}
		if s > maxSz {
			maxSz = s
		}
	}
	if maxSz-minSz > 1 {
		t.Fatalf("unbalanced chunks: min=%d max=%d", minSz, maxSz)
	}
}

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var count atomic.Int64
	for i := 0; i < 100; i++ {
		p.Submit(func() { count.Add(1) })
	}
	p.Wait()
	if count.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", count.Load())
	}
	// Pool stays usable after Wait.
	for i := 0; i < 50; i++ {
		p.Submit(func() { count.Add(1) })
	}
	p.Wait()
	if count.Load() != 150 {
		t.Fatalf("ran %d tasks after reuse, want 150", count.Load())
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Submit(func() {})
	p.Close()
	p.Close() // must not panic or deadlock
}

func TestMapCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 9} {
		n := 257
		seen := make([]int32, n)
		Map(n, workers, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestClampWorkers(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{0, 10, min(DefaultWorkers, 10)},
		{-5, 3, min(DefaultWorkers, 3)},
		{4, 2, 2},
		{4, 100, 4},
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := clampWorkers(c.workers, c.n); got != c.want {
			t.Errorf("clampWorkers(%d,%d)=%d want %d", c.workers, c.n, got, c.want)
		}
	}
}
