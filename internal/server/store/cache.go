package store

import (
	"container/list"
	"sync"

	"mthplace/internal/flow"
)

// Entry is one cached solve: the per-flow metrics and a digest of the final
// placement, proving a cache hit is bit-identical to the cold solve that
// produced it.
type Entry struct {
	// Metrics is the flow's full measurement record, verbatim from the run
	// that populated the entry (wall-clock fields included).
	Metrics flow.Metrics
	// Placement is the SHA-256 hex digest of the final instance positions.
	Placement string
}

// Cache is the content-addressed solve cache: Key → Entry with LRU
// eviction. All methods are safe for concurrent use.
//
// Only deterministic results belong here. Callers must not Put entries for
// degraded solves (anytime incumbents, wall-clock-budget fallbacks): their
// output depends on timing, so replaying them from cache would break the
// bit-identity contract. Proven-optimal and greedy results are pure
// functions of the instance and are always safe to cache.
type Cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	idx map[Key]*list.Element
}

// cacheItem is the list payload.
type cacheItem struct {
	key Key
	e   Entry
}

// NewCache returns a cache bounded to capacity entries. capacity <= 0
// returns nil, which every method treats as "caching off".
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{cap: capacity, ll: list.New(), idx: make(map[Key]*list.Element)}
}

// Get looks up one key.
func (c *Cache) Get(k Key) (Entry, bool) {
	if c == nil {
		return Entry{}, false
	}
	es, ok := c.GetAll([]Key{k})
	if !ok {
		return Entry{}, false
	}
	return es[0], true
}

// GetAll is the all-or-nothing job lookup: it returns the entries for every
// key, in order, or ok=false if any is absent. A full hit refreshes every
// entry's recency. The cache keeps no counters: callers count job-level
// hits and misses in their own metric registry.
func (c *Cache) GetAll(keys []Key) ([]Entry, bool) {
	if c == nil || len(keys) == 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, len(keys))
	for i, k := range keys {
		el, ok := c.idx[k]
		if !ok {
			return nil, false
		}
		out[i] = el.Value.(*cacheItem).e
	}
	for _, k := range keys {
		c.ll.MoveToFront(c.idx[k])
	}
	return out, true
}

// Put inserts (or refreshes) one entry, evicting the least recently used
// entries beyond capacity.
func (c *Cache) Put(k Key, e Entry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[k]; ok {
		el.Value.(*cacheItem).e = e
		c.ll.MoveToFront(el)
		return
	}
	c.idx[k] = c.ll.PushFront(&cacheItem{key: k, e: e})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.idx, oldest.Value.(*cacheItem).key)
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Capacity returns the eviction bound (0 for a nil cache).
func (c *Cache) Capacity() int {
	if c == nil {
		return 0
	}
	return c.cap
}
