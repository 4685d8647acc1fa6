package sched

// Former is micro-batch formation: items are grouped by key, a group is cut
// when it reaches maxBatch items or when its deadline expires, whichever
// comes first. The Former does not keep time — Add tells the caller when a
// deadline must be armed and the caller reports it back through Expire.
//
// A group lives only while it holds queued items: cutting it deletes it
// from the map, so the map is bounded by live groups instead of growing
// with every distinct key ever seen.
type Former[K comparable, T any] struct {
	maxBatch int
	groups   map[K]*group[T]
	genSeq   uint64 // next group generation; never reused across incarnations
}

type group[T any] struct {
	items []T
	// gen is drawn from the former-wide genSeq when the group is created, so
	// it is unique across every incarnation of every key. A deadline carries
	// its group's gen; after the batch is cut a stale deadline finds either
	// no group or a later incarnation with a different gen, and is a no-op
	// either way — it can never flush a newer group's batch early.
	gen uint64
}

// NewFormer builds a former that cuts a group at maxBatch items.
func NewFormer[K comparable, T any](maxBatch int) *Former[K, T] {
	return &Former[K, T]{maxBatch: maxBatch, groups: make(map[K]*group[T])}
}

// Add queues v under key. When v opens a new group incarnation, fresh is
// true and the caller must arrange for Expire(key, gen) to be called once
// the batching delay has passed — exactly one deadline per incarnation.
// When v fills the group, the cut batch is returned (nil otherwise).
func (f *Former[K, T]) Add(key K, v T) (batch []T, gen uint64, fresh bool) {
	g := f.groups[key]
	if g == nil {
		g = &group[T]{gen: f.genSeq}
		f.genSeq++
		f.groups[key] = g
		fresh = true
	}
	g.items = append(g.items, v)
	if len(g.items) >= f.maxBatch {
		delete(f.groups, key)
		batch = g.items
	}
	return batch, g.gen, fresh
}

// Expire is the deadline of generation gen of key: it cuts and returns the
// group's batch, or nil when that incarnation is gone (already cut by size
// or Drain) or has been succeeded by a later one.
func (f *Former[K, T]) Expire(key K, gen uint64) []T {
	g := f.groups[key]
	if g == nil || g.gen != gen {
		return nil
	}
	delete(f.groups, key)
	return g.items
}

// Drain cuts every live group and returns the batches by key.
func (f *Former[K, T]) Drain() map[K][]T {
	out := make(map[K][]T, len(f.groups))
	for key, g := range f.groups {
		out[key] = g.items
		delete(f.groups, key)
	}
	return out
}

// Len reports the number of live groups.
func (f *Former[K, T]) Len() int { return len(f.groups) }

// Gen reports the generation of key's live group, if it has one.
func (f *Former[K, T]) Gen(key K) (gen uint64, ok bool) {
	g := f.groups[key]
	if g == nil {
		return 0, false
	}
	return g.gen, true
}
