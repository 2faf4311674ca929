package sqo

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sqo/internal/core"
)

// cacheQuery builds distinct single-class queries for cache keying.
func cacheQuery(class string) *Query {
	return NewQuery(class).AddProject(class, "a")
}

// cached builds the result the cache files for q: its Original is q, so the
// cache files it under q's classes, and its dependency set is empty.
func cached(q *Query) *Result {
	return core.ComposeResult(q, q, false, nil, core.Stats{}, nil, []int32{})
}

// TestCacheCapacityOne: the degenerate LRU — every distinct put evicts the
// previous entry, refreshes never evict.
func TestCacheCapacityOne(t *testing.T) {
	c := newResultCache(1)
	qa, qb := cacheQuery("a"), cacheQuery("b")
	ka, kb := Fingerprint(qa), Fingerprint(qb)
	ra, rb := cached(qa), cached(qb)

	c.put(ka, 0, ra)
	if got, ok := c.get(ka, 0); !ok || got != ra {
		t.Fatalf("get(a) = %v, %v after put", got, ok)
	}
	c.put(kb, 0, rb)
	if c.len() != 1 {
		t.Fatalf("len = %d at capacity 1", c.len())
	}
	if _, ok := c.get(ka, 0); ok {
		t.Fatal("a survived eviction at capacity 1")
	}
	if got, ok := c.get(kb, 0); !ok || got != rb {
		t.Fatalf("get(b) = %v, %v after eviction of a", got, ok)
	}
	if ev := c.evictions.Load(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	// A refresh of the resident key must not evict.
	rb2 := cached(qb)
	c.put(kb, 0, rb2)
	if ev := c.evictions.Load(); ev != 1 {
		t.Fatalf("evictions after refresh = %d, want still 1", ev)
	}
	if got, _ := c.get(kb, 0); got != rb2 {
		t.Fatal("refresh did not replace the resident result")
	}
	if n := len(c.byClass["b"]); n != 1 || len(c.byClass) != 1 {
		t.Fatalf("class postings after refresh = %v, want b alone holding one entry", c.byClass)
	}
}

// TestCacheEpochBumpConcurrent: readers and writers race a purge into
// epoch 1 (the cache-side shape of SwapCatalog). Once purge has returned,
// no reader at the new epoch sees a result of the old one, however the
// purge interleaves with in-flight puts of the old generation — those are
// refused from then on.
func TestCacheEpochBumpConcurrent(t *testing.T) {
	c := newResultCache(128)
	classes := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	oldRes, newRes := cached(cacheQuery("a")), cached(cacheQuery("a"))

	var purged atomic.Bool
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 500; i++ {
				key := Fingerprint(cacheQuery(classes[(w+i)%len(classes)]))
				// An optimization of the old generation finishing now.
				c.put(key, 0, oldRes)
				if !purged.Load() {
					c.get(key, 0)
					continue
				}
				// A reader on the new generation: it exists only once
				// the purge has returned, as the engine publishes after.
				if res, ok := c.get(key, 1); ok && res != newRes {
					t.Errorf("old-generation result served at the new epoch")
					return
				}
				c.put(key, 1, newRes)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		c.purge(1)
		purged.Store(true)
	}()
	close(start)
	wg.Wait()

	// An orphan put is refused; the new generation's puts serve.
	q := cacheQuery("z")
	c.put(Fingerprint(q), 0, oldRes)
	if _, ok := c.get(Fingerprint(q), 1); ok {
		t.Fatal("orphan put of the old generation was accepted")
	}
	c.put(Fingerprint(q), 1, newRes)
	if res, ok := c.get(Fingerprint(q), 1); !ok || res != newRes {
		t.Fatal("cache unusable after concurrent epoch bump")
	}
}

// TestCacheUpdateEpochFence: update reconciles the cache with the new
// epoch without touching the entries it lets stand. A survivor, born on an
// older generation, serves readers of every generation since; a put
// computed on a generation older than the cache's is refused; and an entry
// born on a newer generation is absent to a reader still on an older one.
func TestCacheUpdateEpochFence(t *testing.T) {
	c := newResultCache(8)
	qa, qb := cacheQuery("a"), cacheQuery("b")
	resA, resB := cached(qa), cached(qb)
	c.put(Fingerprint(qa), 1, resA) // the delta cannot reach it: must survive
	c.put(Fingerprint(qb), 1, resB) // the delta condemns it: must drop

	onB := NewConstraint("rb", []Predicate{Eq("b", "x", IntValue(1))}, nil, Eq("b", "y", IntValue(2)))
	purged, survived := c.update(2, func(r *Result) bool { return r == resB }, []*Constraint{onB})
	if purged != 1 || survived != 1 {
		t.Fatalf("update purged %d / survived %d, want 1/1", purged, survived)
	}
	if c.visited != 1 {
		t.Fatalf("update visited %d entries, want 1 (the b posting)", c.visited)
	}
	for _, epoch := range []uint64{1, 2} {
		if res, ok := c.get(Fingerprint(qa), epoch); !ok || res != resA {
			t.Fatalf("survivor born at epoch 1 not served to a reader at epoch %d", epoch)
		}
	}
	// An orphan: computed on generation 1, landing after the sweep.
	c.put(Fingerprint(qb), 1, resB)
	if _, ok := c.get(Fingerprint(qb), 2); ok {
		t.Fatal("orphan put of a replaced generation was accepted")
	}
	// A result of the new generation is absent to a reader of the old.
	qc := cacheQuery("c")
	resC := cached(qc)
	c.put(Fingerprint(qc), 2, resC)
	if _, ok := c.get(Fingerprint(qc), 1); ok {
		t.Fatal("entry born at epoch 2 served to a reader at epoch 1")
	}
	if res, ok := c.get(Fingerprint(qc), 2); !ok || res != resC {
		t.Fatal("entry born at epoch 2 not served at epoch 2")
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
}

// TestCacheDropGenClearsSlot: evicting the last element of an envelope
// bucket must not leave the vacated slot of the bucket's backing array
// pointing at it, or the array pins the evicted result.
func TestCacheDropGenClearsSlot(t *testing.T) {
	c := newResultCache(3)
	c.enableSubsumption()
	base := func() *Query { return NewQuery("a").AddProject("a", "id") }
	qs := []*Query{
		base().AddSelect(Eq("a", "x", IntValue(1))),
		base().AddSelect(Eq("a", "x", IntValue(1))).AddSelect(Eq("a", "y", IntValue(2))),
		base().AddSelect(Eq("a", "x", IntValue(1))).AddSelect(Eq("a", "y", IntValue(2))).AddSelect(Eq("a", "z", IntValue(3))),
	}
	env := envelopeFingerprint(qs[0])
	for _, q := range qs {
		c.putGen(Fingerprint(q), env, 0, q, cached(q))
	}
	bucket := c.gens[env]
	if len(bucket) != 3 {
		t.Fatalf("bucket holds %d entries, want 3", len(bucket))
	}
	victim := bucket[2] // the most selective: last in the bucket
	// Refresh the other two so the victim is least recently used, then
	// evict it with an entry of another envelope.
	c.get(Fingerprint(qs[0]), 0)
	c.get(Fingerprint(qs[1]), 0)
	other := NewQuery("b").AddProject("b", "id")
	c.putGen(Fingerprint(other), envelopeFingerprint(other), 0, other, cached(other))
	if _, ok := c.get(Fingerprint(qs[2]), 0); ok {
		t.Fatal("the victim was not evicted")
	}
	for i, el := range bucket[:cap(bucket)] {
		if el == victim {
			t.Fatalf("slot %d of the bucket's backing array still references the evicted entry", i)
		}
	}
}

// TestUpdateSweepVisitsClassPostings is the counted-work gate of cache
// invalidation: a 1-rule delta visits exactly the cached entries whose
// query holds the rule's class, and a rule on a class no cached query
// holds visits none — however large the cache and the catalog.
func TestUpdateSweepVisitsClassPostings(t *testing.T) {
	for _, n := range []int{100, 1000, 10000} {
		sch, cat, err := GenerateScaledWorld(ScaledConfig{Constraints: n, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		classes := sch.Classes()
		// The last class of the chain is held by no cached query: the
		// fill below skips every query that names it.
		unheld := fmt.Sprintf("k%03d", len(classes)-1)
		qs, err := ScaledWorkload(sch, cat, 6000, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, capacity := range []int{64, 4096} {
			eng, err := NewEngine(sch, WithCatalog(cat),
				WithCache(CacheConfig{Capacity: capacity, Canonicalize: true, Subsume: true}))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				if q.HasClass(unheld) {
					continue
				}
				if _, err := eng.Optimize(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
			// A class some cached query holds: the most recent entry's.
			c := eng.cache
			c.mu.Lock()
			held := c.order.Front().Value.(*cacheEntry).res.Original.Classes[0]
			c.mu.Unlock()
			for k, class := range []string{held, unheld} {
				holders := 0
				c.mu.Lock()
				for el := c.order.Front(); el != nil; el = el.Next() {
					if el.Value.(*cacheEntry).res.Original.HasClass(class) {
						holders++
					}
				}
				size, before := c.order.Len(), c.visited
				c.mu.Unlock()
				rule := NewConstraint(fmt.Sprintf("sweep%d", k),
					[]Predicate{Eq(class, "kind", StringValue(fmt.Sprintf("sweep-%d", k)))}, nil,
					Sel(class, "load", OpLE, IntValue(int64(7000+k))))
				rep, err := eng.UpdateCatalog(NewCatalogDelta().AddConstraints(rule))
				if err != nil {
					t.Fatal(err)
				}
				visited := c.visited - before
				t.Logf("%d rules, capacity %d: rule on %s visited %d of %d entries", n, capacity, class, visited, size)
				if visited != int64(holders) {
					t.Errorf("%d rules, capacity %d: rule on %s visited %d entries, want the %d holding the class",
						n, capacity, class, visited, holders)
				}
				if class == held && visited == 0 || class == unheld && visited != 0 {
					t.Errorf("%d rules, capacity %d: rule on %s visited %d entries", n, capacity, class, visited)
				}
				if rep.CacheSurvived != size-rep.CachePurged || rep.CacheSurvived != eng.Stats().Cache.Size {
					t.Errorf("%d rules, capacity %d: report %+v disagrees with %d cached before and %d after",
						n, capacity, rep, size, eng.Stats().Cache.Size)
				}
			}
		}
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
	res := cached(cacheQuery("a"))

	var wg sync.WaitGroup
	var gets, puts atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				key := Fingerprint(cacheQuery(classes[(w*7+i)%len(classes)]))
				if i%2 == 0 {
					c.get(key, uint64(i%3))
					gets.Add(1)
				} else {
					c.put(key, uint64(i%3), res)
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
// and the serving counters stay coherent throughout. The swaps alternate
// between the catalog and the catalog plus one rule, so each one changes
// the catalog (a swap to the catalog already served publishes nothing).
func TestEngineEpochBumpUnderTraffic(t *testing.T) {
	sch := NewSchemaBuilder().
		Class("vehicle", Attribute{Name: "desc", Type: KindString}).
		Class("cargo", Attribute{Name: "desc", Type: KindString, Indexed: true}).
		Relationship("collects", "vehicle", "cargo", OneToMany).
		MustBuild()
	c1 := NewConstraint("c1",
		[]Predicate{Eq("vehicle", "desc", StringValue("refrigerated truck"))},
		[]string{"collects"},
		Eq("cargo", "desc", StringValue("frozen food")))
	cat := MustCatalog(c1)
	plus := MustCatalog(c1, NewConstraint("c2",
		[]Predicate{Eq("vehicle", "desc", StringValue("van"))},
		[]string{"collects"},
		Eq("cargo", "desc", StringValue("parcels"))))
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
		next := plus
		if s%2 == 1 {
			next = cat
		}
		if err := eng.SwapCatalog(next); err != nil {
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
