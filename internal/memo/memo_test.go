package memo

import (
	"testing"

	"drainnas/internal/tensor"
)

// TestTableMatchesMap replays random Puts and Gets against a Go map, with
// keys drawn from a small pool so most operations hit, and from words that
// differ only in their low or only in their high bits, which a weak hash
// would pile onto one probe run. Past the limit the table starts over, so
// the reference does too.
func TestTableMatchesMap(t *testing.T) {
	for _, limit := range []int{1, 5, 100, 1000} {
		rng := tensor.NewRNG(uint64(limit))
		var pool []uint64
		for i := uint64(0); i < 300; i++ {
			pool = append(pool, i, i<<52, rng.Uint64())
		}
		tab, ref := New[int](limit), map[uint64]int{}
		for op := 0; op < 20000; op++ {
			key := pool[rng.Uint64()%uint64(len(pool))]
			if rng.Uint64()%3 == 0 {
				if _, held := ref[key]; !held && len(ref) == limit {
					clear(ref)
				}
				ref[key] = op
				tab.Put(key, op)
			}
			got, ok := tab.Get(key)
			want, wantOK := ref[key]
			if got != want || ok != wantOK {
				t.Fatalf("limit %d, op %d: Get(%#x) = %d, %t; map has %d, %t", limit, op, key, got, ok, want, wantOK)
			}
			if tab.n != len(ref) {
				t.Fatalf("limit %d, op %d: %d entries, map has %d", limit, op, tab.n, len(ref))
			}
		}
	}
}

// TestTableGetDoesNotAllocate: a lookup, hit or miss, allocates nothing,
// and neither does replacing a held value.
func TestTableGetDoesNotAllocate(t *testing.T) {
	tab := New[[4]float64](64)
	for k := uint64(0); k < 40; k++ {
		tab.Put(k*0x10001, [4]float64{float64(k)})
	}
	allocs := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 80; k++ {
			if v, ok := tab.Get(k * 0x10001); ok {
				tab.Put(k*0x10001, v)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per 80 lookups", allocs)
	}
}
