package tensor

import (
	"math/bits"
	"sync"

	"drainnas/internal/metrics"
)

// The scratch pools recycle the package's transient buffers — packed GEMM
// panels and column blocks, the naive path's im2col, and the int8 path's
// packed u8 activation panels and int32 accumulator tiles. These are the
// training and serving loops' dominant transient allocations, and reuse
// keeps GC pressure flat across epochs.
//
// Buffers are bucketed by power-of-two capacity class. A request is served
// from the class that can always satisfy it (so a pooled buffer is never
// "too small" and silently dropped, the failure mode of the previous
// single-pool design: under mixed sizes it would pull a small buffer, find
// it short, allocate, and lose the pooled one forever). Waste is bounded at
// 2× the requested size; classes below scratchMinClass share one bucket so
// tiny buffers don't fragment across pools.
// Buffers travel through the pools inside *[]T boxes: a pointer is
// interface-shaped, so Put never boxes (storing a bare slice would allocate
// a 24-byte header on every return — measurable churn on the zero-alloc
// inference path). The boxes themselves recycle through a pool of their
// own, so a steady-state get/put round trip allocates nothing at all.
const scratchMinClass = 6 // smallest bucket: 64 elements

// typedScratch is one scratch pool for elements of type T, elemBytes wide.
type typedScratch[T any] struct {
	pools     [28]sync.Pool
	boxes     sync.Pool
	elemBytes int
}

func newTypedScratch[T any](elemBytes int) *typedScratch[T] {
	return &typedScratch[T]{boxes: sync.Pool{New: func() any { return new([]T) }}, elemBytes: elemBytes}
}

var (
	scratchF32 = newTypedScratch[float32](4)
	scratchU8  = newTypedScratch[uint8](1)
	scratchI32 = newTypedScratch[int32](4)
)

// scratchPoolDisabled short-circuits the pools (every get allocates, every
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

// get returns a length-n buffer, reusing a pooled one when available.
// Contents are unspecified: callers either overwrite every element (im2col,
// packing) or zero it explicitly.
func (p *typedScratch[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	if scratchObserver != nil {
		scratchObserver(p.elemBytes * n)
	}
	c := scratchClass(n)
	if !scratchPoolDisabled {
		if v := p.pools[c].Get(); v != nil {
			box := v.(*[]T)
			buf := *box
			*box = nil // don't pin the buffer from the box pool
			p.boxes.Put(box)
			metrics.Kernel.ScratchHit()
			return buf[:n]
		}
	}
	metrics.Kernel.ScratchMiss()
	return make([]T, 1<<c)[:n]
}

// put returns a buffer to its capacity class. Buffers from get have
// power-of-two capacities and land back in their own class; a foreign
// buffer is filed under the largest class it can always satisfy.
func (p *typedScratch[T]) put(buf []T) {
	c := cap(buf)
	if c < 1<<scratchMinClass || scratchPoolDisabled {
		return
	}
	class := bits.Len(uint(c)) - 1 // floor(log2 cap): cap ≥ 2^class
	box := p.boxes.Get().(*[]T)
	*box = buf[:c:c]
	p.pools[class].Put(box)
}
