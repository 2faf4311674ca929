package sqo

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// cacheQuery builds distinct single-class queries for cache keying; the
// cache never inspects results, so empty Result values suffice.
func cacheQuery(class string) *Query {
	return NewQuery(class).AddProject(class, "a")
}

// testKey builds an epoch-scoped cache key the way the engine does, minus
// the symbol space (content hashing).
func testKey(epoch uint64, q *Query) cacheKey {
	return cacheKey{epoch: epoch, fp: Fingerprint(q)}
}

// TestCacheCapacityOne: the degenerate LRU — every distinct put evicts the
// previous entry, refreshes never evict.
func TestCacheCapacityOne(t *testing.T) {
	c := newResultCache(1)
	ka := testKey(0, cacheQuery("a"))
	kb := testKey(0, cacheQuery("b"))
	ra, rb := &Result{}, &Result{}

	c.put(ka, ra)
	if got, ok := c.get(ka); !ok || got != ra {
		t.Fatalf("get(a) = %v, %v after put", got, ok)
	}
	c.put(kb, rb)
	if c.len() != 1 {
		t.Fatalf("len = %d at capacity 1", c.len())
	}
	if _, ok := c.get(ka); ok {
		t.Fatal("a survived eviction at capacity 1")
	}
	if got, ok := c.get(kb); !ok || got != rb {
		t.Fatalf("get(b) = %v, %v after eviction of a", got, ok)
	}
	if ev := c.evictions.Load(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	// A refresh of the resident key must not evict.
	c.put(kb, ra)
	if ev := c.evictions.Load(); ev != 1 {
		t.Fatalf("evictions after refresh = %d, want still 1", ev)
	}
	if got, _ := c.get(kb); got != ra {
		t.Fatal("refresh did not replace the resident result")
	}
}

// TestCacheEpochBumpConcurrent: readers and writers race an epoch bump (the
// cache-side shape of SwapCatalog: purge + new key prefix). Old-epoch
// results must never surface under new-epoch keys, no matter how the purge
// interleaves with in-flight puts.
func TestCacheEpochBumpConcurrent(t *testing.T) {
	c := newResultCache(128)
	classes := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	oldRes, newRes := &Result{}, &Result{}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 500; i++ {
				q := cacheQuery(classes[(w+i)%len(classes)])
				c.put(testKey(0, q), oldRes)
				if res, ok := c.get(testKey(1, q)); ok && res != newRes {
					t.Errorf("old-epoch result served under new-epoch key")
					return
				}
				c.put(testKey(1, q), newRes)
				c.get(testKey(0, q))
			}
		}(w)
	}
	// The epoch bump itself, racing the traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		c.purge()
	}()
	close(start)
	wg.Wait()

	// After the dust settles a fresh purge empties it, and new-epoch keys
	// repopulate cleanly.
	c.purge()
	if c.len() != 0 {
		t.Fatalf("len = %d after purge", c.len())
	}
	q := cacheQuery("a")
	c.put(testKey(1, q), newRes)
	if res, ok := c.get(testKey(1, q)); !ok || res != newRes {
		t.Fatal("cache unusable after concurrent epoch bump")
	}
}

// TestCacheUpdateEpochFence: update re-stamps only entries of the epoch
// being replaced. An entry stamped with any other epoch is an in-flight put
// that landed after its generation died — it was never validated against
// the deltas in between, so re-stamping it would launder a stale result
// into the live epoch.
func TestCacheUpdateEpochFence(t *testing.T) {
	c := newResultCache(8)
	qa, qb, qc := cacheQuery("a"), cacheQuery("b"), cacheQuery("c")
	resA, resB, resC := &Result{}, &Result{}, &Result{}
	c.put(testKey(1, qa), resA) // current generation: must survive
	c.put(testKey(0, qb), resB) // orphan from a replaced generation: must drop
	c.put(testKey(2, qc), resC) // impossible future stamp: must drop too

	purged, survived := c.update(1, 2, func(*Result) bool { return false })
	if purged != 2 || survived != 1 {
		t.Fatalf("update purged %d / survived %d, want 2/1", purged, survived)
	}
	if res, ok := c.get(testKey(2, qa)); !ok || res != resA {
		t.Fatal("current-epoch entry was not re-stamped into the new epoch")
	}
	for _, probe := range []cacheKey{testKey(0, qb), testKey(2, qb), testKey(2, qc)} {
		if _, ok := c.get(probe); ok {
			t.Fatalf("orphan entry reachable under %+v", probe)
		}
	}
	if c.len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.len())
	}
}

// TestCacheStatsConsistency: under concurrent traffic the counters must
// reconcile exactly — every get is a hit or a miss, evictions never exceed
// inserts, and occupancy respects capacity.
func TestCacheStatsConsistency(t *testing.T) {
	const (
		capacity   = 8
		workers    = 8
		iterations = 2000
	)
	c := newResultCache(capacity)
	classes := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	res := &Result{}

	var wg sync.WaitGroup
	var gets, puts atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				key := testKey(uint64(i%3), cacheQuery(classes[(w*7+i)%len(classes)]))
				if i%2 == 0 {
					c.get(key)
					gets.Add(1)
				} else {
					c.put(key, res)
					puts.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	hits, misses, evs := c.hits.Load(), c.misses.Load(), c.evictions.Load()
	if hits+misses != gets.Load() {
		t.Fatalf("hits(%d) + misses(%d) != gets(%d)", hits, misses, gets.Load())
	}
	if evs > puts.Load() {
		t.Fatalf("evictions(%d) > puts(%d)", evs, puts.Load())
	}
	if got := c.len(); got > capacity {
		t.Fatalf("len = %d > capacity %d", got, capacity)
	}
}

// TestEngineEpochBumpUnderTraffic: the engine-level version of the epoch
// test — SwapCatalog bumps the epoch while Optimize traffic is in flight,
// and the serving counters stay coherent throughout.
func TestEngineEpochBumpUnderTraffic(t *testing.T) {
	sch := NewSchemaBuilder().
		Class("vehicle", Attribute{Name: "desc", Type: KindString}).
		Class("cargo", Attribute{Name: "desc", Type: KindString, Indexed: true}).
		Relationship("collects", "vehicle", "cargo", OneToMany).
		MustBuild()
	cat := MustCatalog(
		NewConstraint("c1",
			[]Predicate{Eq("vehicle", "desc", StringValue("refrigerated truck"))},
			[]string{"collects"},
			Eq("cargo", "desc", StringValue("frozen food"))))
	eng, err := NewEngine(sch, WithCatalog(cat), WithCache(CacheConfig{Capacity: 16}))
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery("vehicle", "cargo").
		AddProject("cargo", "desc").
		AddSelect(Eq("vehicle", "desc", StringValue("refrigerated truck"))).
		AddRelationship("collects")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := eng.Optimize(context.Background(), q); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for s := 0; s < 5; s++ {
		if err := eng.SwapCatalog(cat); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	st := eng.Stats()
	if st.Epoch != 5 || st.CatalogSwaps != 5 {
		t.Fatalf("epoch/swaps = %d/%d, want 5/5", st.Epoch, st.CatalogSwaps)
	}
	if st.Optimizations != 800 {
		t.Fatalf("optimizations = %d, want 800", st.Optimizations)
	}
	if st.Cache.Hits()+st.Cache.Misses < st.Optimizations {
		t.Fatalf("cache accounting lost traffic: hits=%d misses=%d opts=%d",
			st.Cache.Hits(), st.Cache.Misses, st.Optimizations)
	}
}
