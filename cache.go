package sqo

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// cacheKey scopes a query fingerprint to one catalog generation. It is a
// comparable struct — the epoch is a field of the hashed key rather than a
// formatted string prefix, so building and probing a key allocates nothing.
// Results computed against an old catalog keep their old epoch, so a lookup
// after SwapCatalog can never return them — even if an in-flight
// optimization stores its result after the swap's purge.
type cacheKey struct {
	epoch uint64
	fp    QueryFingerprint
}

// cacheKeyFor builds the cache key of q under one engine state: the
// generation's interned symbol space resolves predicates, attributes and
// classes to dense IDs before hashing (symbols it has not interned hash as
// content).
func cacheKeyFor(st *engineState, q *Query) cacheKey {
	return cacheKey{epoch: st.epoch, fp: fingerprintWith(q, st.syms)}
}

// resultCache is a concurrency-safe LRU cache of optimization results. With
// subsumption enabled (CacheConfig.Subsume) it additionally maintains a
// secondary structure keyed by subsumption envelope — projection, joins,
// relationships, classes — mapping to the cached entries sharing it, so a
// canonical miss can probe the cached generalizations that could contain the
// query.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[cacheKey]*list.Element

	// gens indexes entries by envelope key; nil unless the engine runs
	// with subsumption. Buckets hold the same elements as order/items —
	// every mutation maintains both.
	gens map[cacheKey][]*list.Element

	hits      atomic.Int64 // primary-key hits (exact + canonical)
	canonHits atomic.Int64 // of hits: served only because canonicalization collapsed the query
	subHits   atomic.Int64 // derived from a cached generalization (counted a miss by get)
	residual  atomic.Int64 // residual conjuncts applied across all subsumption hits
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key cacheKey
	res *Result

	// env and cq are set only under subsumption: the entry's envelope key
	// and the canonical query res answers — what the containment check
	// compares against. cq == nil means the entry is not in gens.
	env cacheKey
	cq  *Query
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[cacheKey]*list.Element, capacity),
	}
}

// enableSubsumption switches the cache into generalization-tracking mode;
// called once at engine construction, before any traffic.
func (c *resultCache) enableSubsumption() {
	c.gens = make(map[cacheKey][]*list.Element)
}

// get returns the cached result for key, marking it most recently used.
func (c *resultCache) get(key cacheKey) (*Result, bool) {
	c.mu.Lock()
	var res *Result
	el, ok := c.items[key]
	if ok {
		c.order.MoveToFront(el)
		// Read the result while still holding the lock: put's
		// refresh branch writes this field under the same lock.
		res = el.Value.(*cacheEntry).res
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return res, true
}

// put inserts (or refreshes) a result, evicting the least recently used
// entry when the cache is full.
func (c *resultCache) put(key cacheKey, res *Result) {
	c.putGen(key, cacheKey{}, nil, res)
}

// putGen is put with generalization tracking: cq is the canonical query res
// answers and env its envelope key. The subsuming engine stores every
// cold-optimized result through this path, making it a candidate
// generalization for further-contained queries (derived results go through
// plain put — see Engine.trySubsume).
func (c *resultCache) putGen(key, env cacheKey, cq *Query, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Same key ⇒ same canonical query ⇒ same envelope: the gens
		// membership is already right.
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			ent := oldest.Value.(*cacheEntry)
			delete(c.items, ent.key)
			c.dropGen(oldest, ent)
			c.evictions.Add(1)
		}
	}
	el := c.order.PushFront(&cacheEntry{key: key, res: res, env: env, cq: cq})
	c.items[key] = el
	c.insertGen(el)
}

// insertGen files an element into its envelope bucket, keeping the bucket
// sorted by ascending selective-conjunct count. A generalization strictly
// contains the queries it answers, so it has strictly fewer selects than any
// of them: probing a bucket front-to-back sees the most general candidates
// first and can stop at the probing query's own count — cached
// specializations (including results the derivation itself stored) can never
// crowd their generalization out of the probe window.
func (c *resultCache) insertGen(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	if c.gens == nil || ent.cq == nil {
		return
	}
	bucket := c.gens[ent.env]
	n := len(ent.cq.Selects)
	i := len(bucket)
	for i > 0 && len(bucket[i-1].Value.(*cacheEntry).cq.Selects) > n {
		i--
	}
	bucket = append(bucket, nil)
	copy(bucket[i+1:], bucket[i:])
	bucket[i] = el
	c.gens[ent.env] = bucket
}

// dropGen removes an element from its envelope bucket, preserving the
// bucket's sort order (no-op for entries stored without generalization
// tracking).
func (c *resultCache) dropGen(el *list.Element, ent *cacheEntry) {
	if c.gens == nil || ent.cq == nil {
		return
	}
	bucket := c.gens[ent.env]
	for i, b := range bucket {
		if b == el {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(c.gens, ent.env)
	} else {
		c.gens[ent.env] = bucket
	}
}

// genCandidate is one cached generalization copied out of the cache under
// lock; the containment check runs on the copy so the cache mutex is never
// held across predicate reasoning.
type genCandidate struct {
	cq  *Query
	res *Result
}

// generalizations appends up to max candidates sharing the envelope key to
// buf and returns it. Buckets are sorted by ascending select count (see
// insertGen), so the walk sees the most general candidates first and stops at
// maxSelects: a strict generalization of the probing query necessarily has
// fewer selective conjuncts than the query itself.
func (c *resultCache) generalizations(env cacheKey, buf []genCandidate, max, maxSelects int) []genCandidate {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.gens[env] {
		if len(buf) >= max {
			break
		}
		ent := el.Value.(*cacheEntry)
		if len(ent.cq.Selects) >= maxSelects {
			break
		}
		buf = append(buf, genCandidate{cq: ent.cq, res: ent.res})
	}
	return buf
}

// subsumed records one subsumption hit answered with extras residual
// conjuncts. The triggering lookup already counted a miss; stats readers
// reconcile (see CacheStats).
func (c *resultCache) subsumed(extras int) {
	c.subHits.Add(1)
	c.residual.Add(int64(extras))
}

// purge drops every entry, returning how many; the hit/miss/eviction
// counters survive.
func (c *resultCache) purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.order.Len()
	c.order.Init()
	clear(c.items)
	if c.gens != nil {
		clear(c.gens)
	}
	return n
}

// update is the surgical companion of purge, for incremental catalog
// updates: every entry of the epoch being replaced for which drop returns
// true is removed, and every survivor is re-stamped into the new epoch in
// place — same fingerprint, same result, same LRU position — so it keeps
// hitting after the engine publishes the new generation. Sound because
// query fingerprints are stable across a patch lineage (untouched symbol
// IDs never move) and because the drop predicate guarantees a survivor's
// result is identical under the old and the new generation.
//
// Entries stamped with any *other* epoch are dropped outright: they are
// in-flight puts that landed after their generation was replaced, so they
// were never checked against the deltas in between — re-stamping one would
// launder a stale result past the epoch fence.
//
// The caller must run the sweep *before* publishing the new generation, so
// no reader can have put a newEpoch-keyed entry yet; should one exist
// anyway, the occupancy check keeps it (it was computed against the new
// generation) and drops the old survivor instead of corrupting the map.
//
// The whole sweep — drop checks included — runs under the cache mutex, so
// concurrent Optimize calls stall for its duration; the cost is bounded by
// cache capacity × delta size and is paid once per catalog update, not on
// the serving path.
func (c *resultCache) update(oldEpoch, newEpoch uint64, drop func(*Result) bool) (purged, survived int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*cacheEntry)
		if ent.key.epoch != oldEpoch || drop(ent.res) {
			c.order.Remove(el)
			delete(c.items, ent.key)
			purged++
			el = next
			continue
		}
		delete(c.items, ent.key)
		ent.key.epoch = newEpoch
		if _, taken := c.items[ent.key]; taken {
			c.order.Remove(el)
			purged++
		} else {
			c.items[ent.key] = el
			survived++
		}
		el = next
	}
	// The envelope index is keyed by epoch too; rebuild it over the
	// survivors under their new stamp. Envelope fingerprints are stable
	// across a patch lineage for the same reason primary fingerprints are
	// (the drop predicate purged anything whose symbol basis shifted).
	if c.gens != nil {
		clear(c.gens)
		for el := c.order.Front(); el != nil; el = el.Next() {
			ent := el.Value.(*cacheEntry)
			if ent.cq == nil {
				continue
			}
			ent.env.epoch = newEpoch
			c.insertGen(el)
		}
	}
	return purged, survived
}

// len returns the current number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
