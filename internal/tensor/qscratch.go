package tensor

import (
	"math/bits"
	"sync"

	"drainnas/internal/metrics"
)

// typedScratch is the generic sibling of the float32 scratch pool: the int8
// inference path needs transient buffers of two more element types (uint8
// packed activation panels, int32 accumulator tiles), and they recycle exactly the way the float buffers do — bucketed
// by power-of-two capacity class, boxed behind pointers so a get/put round
// trip allocates nothing. The float pool keeps its original concrete form;
// sharing an implementation with it would churn the hottest allocation path
// in the package for no behavioral gain.
type typedScratch[T any] struct {
	pools     [28]sync.Pool
	boxes     sync.Pool
	elemBytes int
}

func newTypedScratch[T any](elemBytes int) *typedScratch[T] {
	return &typedScratch[T]{boxes: sync.Pool{New: func() any { return new([]T) }}, elemBytes: elemBytes}
}

// get returns a length-n buffer with unspecified contents, like getScratch.
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

// put files a buffer back under the largest class its capacity can always
// satisfy.
func (p *typedScratch[T]) put(buf []T) {
	c := cap(buf)
	if c < 1<<scratchMinClass || scratchPoolDisabled {
		return
	}
	class := bits.Len(uint(c)) - 1
	box := p.boxes.Get().(*[]T)
	*box = buf[:c:c]
	p.pools[class].Put(box)
}

var (
	scratchU8  = newTypedScratch[uint8](1)
	scratchI32 = newTypedScratch[int32](4)
)
