package serve

import (
	"container/list"
	"fmt"
	"sync"

	"drainnas/internal/infer"
)

// ModelCache is an LRU cache of compiled inference plans keyed by
// architecture identity (in practice the container file name or the
// resnet.Config.Key of the exported model). One server instance can then
// serve several Pareto-front models while bounding resident weight memory —
// the serving-side analogue of the paper's memory objective.
//
// Loads are deduplicated: concurrent Gets for the same key run the loader
// once and share the result. A failed load is not cached, so a transient
// error (file not yet written, partial upload) is retried on the next Get.
type ModelCache struct {
	mu      sync.Mutex
	cap     int
	loader  func(key string) (*infer.Plan, error)
	ll      *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key  string
	once sync.Once
	plan *infer.Plan
	err  error
}

// NewModelCache builds a cache holding at most capacity plans
// (minimum 1).
func NewModelCache(capacity int, loader func(key string) (*infer.Plan, error)) *ModelCache {
	if capacity < 1 {
		capacity = 1
	}
	if loader == nil {
		panic("serve: NewModelCache requires a loader")
	}
	return &ModelCache{
		cap:     capacity,
		loader:  loader,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the compiled plan for key, loading it on first use and refreshing
// its recency. Eviction drops the least-recently-used entry; an evicted
// entry still mid-load finishes loading for the goroutines already waiting
// on it, it just stops being cached.
func (c *ModelCache) Get(key string) (*infer.Plan, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		e.once.Do(func() { e.load(c.loader) })
		return e.plan, e.err
	}
	c.misses++
	e := &cacheEntry{key: key}
	c.entries[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.mu.Unlock()

	e.once.Do(func() { e.load(c.loader) })
	if e.err != nil {
		// Drop the failed entry so a later Get retries, but only if the
		// slot still holds this exact entry (it may have been evicted or
		// replaced meanwhile).
		c.mu.Lock()
		if el, ok := c.entries[key]; ok && el.Value.(*cacheEntry) == e {
			c.ll.Remove(el)
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	return e.plan, e.err
}

func (e *cacheEntry) load(loader func(string) (*infer.Plan, error)) {
	defer func() {
		if r := recover(); r != nil {
			e.plan, e.err = nil, fmt.Errorf("serve: loading model %q panicked: %v", e.key, r)
		}
	}()
	e.plan, e.err = loader(e.key)
}

// Len returns the number of cached entries.
func (c *ModelCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time copy of the cache counters.
type CacheStats struct {
	Len       int    `json:"len" prom:"drainnas_model_cache_resident" help:"Resident model runtimes."`
	Capacity  int    `json:"capacity" prom:"drainnas_model_cache_capacity" help:"Model cache capacity."`
	Hits      uint64 `json:"hits" prom:"drainnas_model_cache_hits_total" help:"Model lookups served from cache."`
	Misses    uint64 `json:"misses" prom:"drainnas_model_cache_misses_total" help:"Model lookups that loaded from disk."`
	Evictions uint64 `json:"evictions" prom:"drainnas_model_cache_evictions_total" help:"Models evicted to respect capacity."`
}

// Stats returns the cache counters.
func (c *ModelCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Len: c.ll.Len(), Capacity: c.cap,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}
