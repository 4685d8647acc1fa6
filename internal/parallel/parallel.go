// Package parallel provides small, dependency-free building blocks for
// data-parallel execution: chunked and dynamically scheduled parallel-for
// loops, and a reusable worker pool.
//
// All helpers are synchronous from the caller's point of view: they return
// only when every spawned unit of work has finished. Work is split into
// contiguous chunks so that per-goroutine overhead stays negligible even for
// very fine-grained loop bodies, and so that writes from different workers
// land in disjoint cache lines whenever the caller indexes output by the
// loop variable.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the degree of parallelism used when a caller passes a
// non-positive worker count. It is fixed at package init to GOMAXPROCS.
var DefaultWorkers = runtime.GOMAXPROCS(0)

// clampWorkers normalizes a requested worker count: non-positive values
// select DefaultWorkers, and the result never exceeds n (no point spawning
// more goroutines than loop iterations).
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForChunked splits [0, n) into `workers` near-equal contiguous ranges and
// executes body(lo, hi) for each range on its own goroutine. The split gives
// the first (n % workers) chunks one extra element, so chunk sizes differ by
// at most one.
func ForChunked(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		body(0, n)
		return
	}
	base := n / workers
	extra := n % workers
	var wg sync.WaitGroup
	wg.Add(workers)
	lo := 0
	for w := 0; w < workers; w++ {
		size := base
		if w < extra {
			size++
		}
		hi := lo + size
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// SplitRange returns the half-open sub-range [lo, hi) that chunk i of
// `chunks` owns when [0, n) is divided the way ForChunked divides it: the
// first (n % chunks) chunks get one extra element, so sizes differ by at
// most one. It lets a caller address ForChunked-compatible chunks directly
// by index, e.g. when chunk identity selects a scratch buffer.
func SplitRange(n, chunks, i int) (lo, hi int) {
	if chunks < 1 {
		chunks = 1
	}
	base := n / chunks
	extra := n % chunks
	if i < extra {
		lo = i * (base + 1)
		return lo, lo + base + 1
	}
	lo = extra*(base+1) + (i-extra)*base
	return lo, lo + base
}

// ForTiles2D executes body(i, j) for every cell of an m×n grid using up to
// `workers` goroutines (DefaultWorkers if workers <= 0). Cells are handed
// out dynamically through a shared atomic cursor, so workers that finish
// cheap tiles immediately steal the next one — the right scheduling for
// GEMM output tiles, whose cost varies with edge effects, and for
// (column block × row group) convolution grids where the two axes multiply into
// more parallelism than either axis offers alone. For workers == 1 (or a
// single cell) the grid runs inline with no goroutines.
func ForTiles2D(m, n, workers int, body func(i, j int)) {
	total := m * n
	if total <= 0 {
		return
	}
	workers = clampWorkers(workers, total)
	if workers == 1 {
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				body(i, j)
			}
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				t := cursor.Add(1) - 1
				if t >= int64(total) {
					return
				}
				body(int(t)/n, int(t)%n)
			}
		}()
	}
	wg.Wait()
}
