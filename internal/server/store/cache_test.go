package store

import (
	"fmt"
	"sync"
	"testing"

	"mthplace/internal/flow"
)

func testKey(i int) Key {
	inst := Instance{Testcase: fmt.Sprintf("tc-%d", i), Scale: 1, Seed: 1, FencePasses: 3, Solver: "rap", Flow: 5}
	return inst.Key()
}

func testEntry(i int) Entry {
	return Entry{Metrics: flow.Metrics{Flow: flow.Flow5, HPWL: int64(i)}, Placement: fmt.Sprintf("digest-%d", i)}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(4)
	var hits, misses int
	c.SetHooks(func() { hits++ }, func() { misses++ })

	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(testKey(1), testEntry(1))
	e, ok := c.Get(testKey(1))
	if !ok || e.Metrics.HPWL != 1 || e.Placement != "digest-1" {
		t.Fatalf("Get after Put = %+v, %v", e, ok)
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Errorf("stats = %d/%d, want 1 hit / 1 miss", h, m)
	}
	if hits != 1 || misses != 1 {
		t.Errorf("hooks fired %d/%d, want 1/1", hits, misses)
	}
}

// TestCacheGetAllAllOrNothing: a job-level lookup hits only when every flow
// key is resident, and counts exactly one hit or miss per call.
func TestCacheGetAllAllOrNothing(t *testing.T) {
	c := NewCache(8)
	c.Put(testKey(1), testEntry(1))
	c.Put(testKey(2), testEntry(2))

	if _, ok := c.GetAll([]Key{testKey(1), testKey(3)}); ok {
		t.Fatal("partial residency must be a miss")
	}
	es, ok := c.GetAll([]Key{testKey(1), testKey(2)})
	if !ok {
		t.Fatal("full residency must hit")
	}
	if es[0].Metrics.HPWL != 1 || es[1].Metrics.HPWL != 2 {
		t.Fatalf("entries out of order: %+v", es)
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Errorf("stats = %d/%d, want 1/1 (one counted lookup per GetAll)", h, m)
	}
}

// TestCacheLRUEviction: capacity is enforced and recency is respected — a
// recently read entry survives the insertion that evicts a colder one.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put(testKey(1), testEntry(1))
	c.Put(testKey(2), testEntry(2))
	if _, ok := c.Get(testKey(1)); !ok { // refresh 1; 2 is now coldest
		t.Fatal("entry 1 missing before eviction")
	}
	c.Put(testKey(3), testEntry(3))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get(testKey(2)); ok {
		t.Error("coldest entry survived eviction")
	}
	if _, ok := c.Get(testKey(1)); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.Get(testKey(3)); !ok {
		t.Error("newest entry was evicted")
	}
}

// TestCacheNilSafe: a nil cache (caching disabled) is inert for every
// method, so call sites need no guards.
func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	c.Put(testKey(1), testEntry(1))
	c.SetHooks(func() {}, func() {})
	if _, ok := c.Get(testKey(1)); ok {
		t.Error("nil cache hit")
	}
	if _, ok := c.GetAll([]Key{testKey(1)}); ok {
		t.Error("nil cache GetAll hit")
	}
	if c.Len() != 0 || c.Capacity() != 0 {
		t.Error("nil cache reports size")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Error("nil cache reports stats")
	}
	if NewCache(0) != nil {
		t.Error("NewCache(0) must disable caching")
	}
}

// TestCacheConcurrent hammers Put/Get/GetAll from many goroutines; the race
// detector is the assertion, plus counter conservation.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(16)
	var wg sync.WaitGroup
	const workers, iters = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := testKey(i % 32)
				if i%3 == 0 {
					c.Put(k, testEntry(i))
				} else {
					c.Get(k)
					c.GetAll([]Key{k, testKey((i + 1) % 32)})
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("Len %d exceeds capacity", c.Len())
	}
	h, m := c.Stats()
	if h+m == 0 {
		t.Error("no lookups counted")
	}
}

func TestResultsBoundedFIFO(t *testing.T) {
	r := NewResults(2)
	for i := 1; i <= 3; i++ {
		r.Put(&Outcome{Job: fmt.Sprintf("job-%d", i),
			Metrics: map[flow.ID]flow.Metrics{flow.Flow5: {HPWL: int64(i)}}})
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if _, ok := r.Get("job-1"); ok {
		t.Error("oldest outcome not evicted")
	}
	o, ok := r.Get("job-3")
	if !ok || o.Metrics[flow.Flow5].HPWL != 3 {
		t.Errorf("Get(job-3) = %+v, %v", o, ok)
	}
	// Replacing in place neither grows nor reorders.
	r.Put(&Outcome{Job: "job-3", CacheHit: true})
	if r.Len() != 2 {
		t.Errorf("replace grew the store to %d", r.Len())
	}
	if o, _ := r.Get("job-3"); !o.CacheHit {
		t.Error("replace did not take")
	}
}

func TestResultsDefaultCapacity(t *testing.T) {
	if NewResults(0).cap != DefaultResultCapacity {
		t.Error("zero capacity must select the default bound")
	}
}
