// Package memo is a bounded table from 64-bit keys to values: the
// per-worker cache of a pure function whose inputs pack into one word and
// that a hot loop calls far more often than it sees new inputs. It probes
// with a multiplicative hash and linear steps, never deletes, and starts
// over empty once it holds its limit, so its memory stays bounded however
// many distinct keys arrive.
package memo

import "math/bits"

// Table maps keys to values, holding at most limit entries. A Table is not
// safe for concurrent use.
type Table[V any] struct {
	slots []slot[V] // a power of two, at least twice the entries
	shift uint      // 64 − log2(len(slots)): the hash keeps the product's top bits
	n     int
	limit int
}

type slot[V any] struct {
	key  uint64
	used bool
	val  V
}

// New returns an empty table that holds up to limit entries (at least 1).
func New[V any](limit int) *Table[V] {
	return &Table[V]{limit: max(limit, 1)}
}

// find returns the slot holding key, or the empty slot where it belongs.
func (t *Table[V]) find(key uint64) *slot[V] {
	mask := uint64(len(t.slots) - 1)
	for i := (key * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; !s.used || s.key == key {
			return s
		}
	}
}

// Get returns the value stored under key.
func (t *Table[V]) Get(key uint64) (v V, ok bool) {
	if t.n == 0 {
		return v, false
	}
	s := t.find(key)
	return s.val, s.used
}

// Put stores v under key, replacing any value stored there. A key not yet
// held, arriving at a full table, empties the table first.
func (t *Table[V]) Put(key uint64, v V) {
	if t.n > 0 {
		if s := t.find(key); s.used {
			s.val = v
			return
		}
	}
	if t.n == t.limit {
		clear(t.slots)
		t.n = 0
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	s := t.find(key)
	*s = slot[V]{key: key, used: true, val: v}
	t.n++
}

// grow doubles the slots (64 at first) and moves the entries over.
func (t *Table[V]) grow() {
	old := t.slots
	size := max(2*len(old), 64)
	t.slots, t.shift = make([]slot[V], size), uint(64-bits.TrailingZeros(uint(size)))
	for i := range old {
		if old[i].used {
			*t.find(old[i].key) = old[i]
		}
	}
}
