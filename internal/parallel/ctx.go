package parallel

import (
	"context"
	"sync"
	"sync/atomic"
)

// MapCtx runs fn(i) for every i in [0, n) like Map, but stops handing out
// new iterations once ctx is cancelled. Iterations already claimed by a
// worker always run to completion (graceful drain): MapCtx never abandons
// an in-flight fn, it only withholds the remainder. It returns nil when all
// n iterations ran, and ctx.Err() when cancellation cut the loop short.
//
// A worker claims the next index from a shared counter only after seeing
// ctx still live, and runs what it claims, so "claimed" and "running" are
// the same thing: after MapCtx returns, every index it handed out has
// finished, and no other index was started. That is the contract a
// checkpointing caller (a NAS sweep journaling each trial) needs to know
// exactly which units of work completed. Claiming costs one atomic add, not
// a channel hand-off, so cheap iterations do not queue behind a scheduler.
func MapCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if next.Load() < int64(n) { // indices below the counter all ran
		return ctx.Err()
	}
	return nil
}
