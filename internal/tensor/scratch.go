package tensor

import (
	"math/bits"
	"sync"

	"drainnas/internal/metrics"
)

// The scratch pool recycles the package's transient float32 buffers —
// packed GEMM panels and column blocks, and the naive path's im2col.
// These are the training and serving loops' dominant transient allocations,
// and reuse keeps GC pressure flat across epochs.
//
// Buffers are bucketed by power-of-two capacity class. A request is served
// from the class that can always satisfy it (so a pooled buffer is never
// "too small" and silently dropped, the failure mode of the previous
// single-pool design: under mixed sizes it would pull a small buffer, find
// it short, allocate, and lose the pooled one forever). Waste is bounded at
// 2× the requested size; classes below scratchMinClass share one bucket so
// tiny buffers don't fragment across pools.
// Buffers travel through the pools inside *[]float32 boxes: a pointer is
// interface-shaped, so Put never boxes (storing a bare slice would allocate
// a 24-byte header on every return — measurable churn on the zero-alloc
// inference path). The boxes themselves recycle through scratchBoxes, so a
// steady-state get/put round trip allocates nothing at all.
const scratchMinClass = 6 // smallest bucket: 64 floats (256 B)

var (
	scratchPools [28]sync.Pool
	scratchBoxes = sync.Pool{New: func() any { return new([]float32) }}
)

// scratchPoolDisabled short-circuits the pool (every get allocates, every
// put drops); tests use it to compare pooled against fresh-buffer runs.
var scratchPoolDisabled = false

// scratchObserver, when a test sets it, is told the size in bytes of every
// scratch request, pooled or not, from whichever goroutine makes it.
var scratchObserver func(bytes int)

func scratchClass(n int) int {
	c := bits.Len(uint(n - 1)) // ceil(log2 n)
	if c < scratchMinClass {
		c = scratchMinClass
	}
	return c
}

// getScratch returns a length-n float32 buffer, reusing a pooled one when
// available. Contents are unspecified: callers either overwrite every
// element (im2col, packing) or zero it explicitly.
func getScratch(n int) []float32 {
	if n <= 0 {
		return nil
	}
	if scratchObserver != nil {
		scratchObserver(4 * n)
	}
	c := scratchClass(n)
	if !scratchPoolDisabled {
		if v := scratchPools[c].Get(); v != nil {
			box := v.(*[]float32)
			buf := *box
			*box = nil // don't pin the buffer from the box pool
			scratchBoxes.Put(box)
			metrics.Kernel.ScratchHit()
			return buf[:n]
		}
	}
	metrics.Kernel.ScratchMiss()
	return make([]float32, 1<<c)[:n]
}

// putScratch returns a buffer to its capacity class. Buffers from
// getScratch have power-of-two capacities and land back in their own class;
// a foreign buffer is filed under the largest class it can always satisfy.
func putScratch(buf []float32) {
	c := cap(buf)
	if c < 1<<scratchMinClass || scratchPoolDisabled {
		return
	}
	class := bits.Len(uint(c)) - 1 // floor(log2 cap): cap ≥ 2^class
	box := scratchBoxes.Get().(*[]float32)
	*box = buf[:c:c]
	scratchPools[class].Put(box)
}
