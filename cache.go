package sqo

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"

	"sqo/internal/constraint"
)

// resultCache is a concurrency-safe LRU cache of optimization results, keyed
// by content fingerprint. With subsumption enabled (CacheConfig.Subsume) it
// additionally maintains a secondary structure keyed by subsumption
// envelope — projection, joins, relationships, classes — mapping to the
// cached entries sharing it, so a canonical miss can probe the cached
// generalizations that could contain the query.
//
// Keys carry no catalog generation; a generation fence takes its place.
// Every entry records born, the epoch of the generation that computed it,
// and epoch is the newest generation the cache has been reconciled with —
// by purge (a rebuilt generation) or update (a patched one), each run
// before the engine publishes that generation. A put computed on an older
// generation is refused, and a reader treats an entry born after its own
// generation as absent. An entry an update lets stand therefore keeps
// serving as it is: nothing is re-keyed.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	epoch uint64     // newest generation reconciled with; guarded by mu
	order *list.List // front = most recently used
	items map[QueryFingerprint]*list.Element

	// gens indexes entries by envelope key; nil unless the engine runs
	// with subsumption. Buckets hold the same elements as order/items —
	// every mutation maintains both.
	gens map[QueryFingerprint][]*list.Element

	// byClass files every entry under each class of its query, so an
	// update reaches the entries a constraint can touch through the
	// constraint's classes.
	byClass map[string]map[*list.Element]struct{}

	// visited counts the entries update sweeps have examined (guarded by
	// mu): the counted work of cache invalidation.
	visited int64

	hits      atomic.Int64 // primary-key hits (exact + canonical)
	canonHits atomic.Int64 // of hits: served only because canonicalization collapsed the query
	subHits   atomic.Int64 // derived from a cached generalization (counted a miss by get)
	residual  atomic.Int64 // residual conjuncts applied across all subsumption hits
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key  QueryFingerprint
	born uint64 // epoch of the generation that computed res
	res  *Result

	// env and cq are set only under subsumption: the entry's envelope key
	// and the canonical query res answers — what the containment check
	// compares against. cq == nil means the entry is not in gens.
	env QueryFingerprint
	cq  *Query
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		order:   list.New(),
		items:   make(map[QueryFingerprint]*list.Element, capacity),
		byClass: make(map[string]map[*list.Element]struct{}),
	}
}

// enableSubsumption switches the cache into generalization-tracking mode;
// called once at engine construction, before any traffic.
func (c *resultCache) enableSubsumption() {
	c.gens = make(map[QueryFingerprint][]*list.Element)
}

// get returns the cached result for key as a reader on generation epoch
// may see it, marking it most recently used. An entry born on a later
// generation is absent to that reader.
func (c *resultCache) get(key QueryFingerprint, epoch uint64) (*Result, bool) {
	c.mu.Lock()
	var res *Result
	el, ok := c.items[key]
	if ok {
		// Read the entry while still holding the lock: put's refresh
		// branch writes these fields under the same lock.
		ent := el.Value.(*cacheEntry)
		if ok = ent.born <= epoch; ok {
			c.order.MoveToFront(el)
			res = ent.res
		}
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return res, true
}

// put inserts (or refreshes) a result computed on generation born, evicting
// the least recently used entry when the cache is full.
func (c *resultCache) put(key QueryFingerprint, born uint64, res *Result) {
	c.putGen(key, QueryFingerprint{}, born, nil, res)
}

// putGen is put with generalization tracking: cq is the canonical query res
// answers and env its envelope key. The subsuming engine stores every
// cold-optimized result through this path, making it a candidate
// generalization for further-contained queries (derived results go through
// plain put — see Engine.trySubsume). A result computed on a generation
// older than the cache's is refused: no update sweep has checked it.
func (c *resultCache) putGen(key, env QueryFingerprint, born uint64, cq *Query, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if born < c.epoch {
		return
	}
	if el, ok := c.items[key]; ok {
		// Same key ⇒ same canonical query ⇒ same envelope: the gens
		// membership is already right. The class filing follows the
		// result.
		ent := el.Value.(*cacheEntry)
		c.unfile(el)
		ent.res, ent.born = res, born
		c.file(el)
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		if oldest := c.order.Back(); oldest != nil {
			c.remove(oldest)
			c.evictions.Add(1)
		}
	}
	el := c.order.PushFront(&cacheEntry{key: key, born: born, res: res, env: env, cq: cq})
	c.items[key] = el
	c.insertGen(el)
	c.file(el)
}

// remove drops an element from every structure of the cache.
func (c *resultCache) remove(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.items, ent.key)
	c.dropGen(el, ent)
	c.unfile(el)
}

// file adds an element to the postings of its query's classes.
func (c *resultCache) file(el *list.Element) {
	for _, cl := range el.Value.(*cacheEntry).res.Original.Classes {
		set := c.byClass[cl]
		if set == nil {
			set = make(map[*list.Element]struct{})
			c.byClass[cl] = set
		}
		set[el] = struct{}{}
	}
}

// unfile reverses file.
func (c *resultCache) unfile(el *list.Element) {
	for _, cl := range el.Value.(*cacheEntry).res.Original.Classes {
		if set := c.byClass[cl]; set != nil {
			delete(set, el)
			if len(set) == 0 {
				delete(c.byClass, cl)
			}
		}
	}
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
// tracking). slices.Delete clears the vacated slot, so the bucket's backing
// array never pins an evicted result.
func (c *resultCache) dropGen(el *list.Element, ent *cacheEntry) {
	if c.gens == nil || ent.cq == nil {
		return
	}
	bucket := c.gens[ent.env]
	if i := slices.Index(bucket, el); i >= 0 {
		bucket = slices.Delete(bucket, i, i+1)
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

// generalizations appends up to max candidates sharing the envelope key
// that a reader on generation epoch may see to buf and returns it. Buckets
// are sorted by ascending select count (see insertGen), so the walk sees
// the most general candidates first and stops at maxSelects: a strict
// generalization of the probing query necessarily has fewer selective
// conjuncts than the query itself.
func (c *resultCache) generalizations(env QueryFingerprint, epoch uint64, buf []genCandidate, max, maxSelects int) []genCandidate {
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
		if ent.born > epoch {
			continue
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

// purge drops every entry and reconciles the cache with generation epoch,
// returning how many entries it dropped; the hit/miss/eviction counters
// survive.
func (c *resultCache) purge(epoch uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = epoch
	n := c.order.Len()
	c.order.Init()
	clear(c.items)
	if c.gens != nil {
		clear(c.gens)
	}
	clear(c.byClass)
	return n
}

// update is the surgical companion of purge, for patched generations (an
// update's or a swap's delta): it reconciles the cache with generation
// epoch, removing every entry for which drop returns true among the entries
// the delta can reach.
// touched hold the delta's removed and added constraints. A constraint is
// relevant only to queries that hold every one of its classes, and a
// result's dependency set is a subset of its relevant set, so each entry
// drop can condemn is filed under every class of some touched constraint.
// The sweep therefore visits, per touched constraint, the smallest posting
// among its classes. Entries it does not visit keep their place and their
// born stamp; the fence keeps them serving under the new generation.
//
// The caller must run the sweep *before* publishing the new generation:
// from the moment it returns, puts computed on an older generation are
// refused, so no result the sweep did not check can enter the cache.
//
// The sweep runs under the cache mutex; its cost is the size of the
// postings it visits, not the size of the cache.
func (c *resultCache) update(epoch uint64, drop func(*Result) bool, touched ...[]*constraint.Constraint) (purged, survived int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = epoch
	sweep := func(set map[*list.Element]struct{}) {
		for el := range set {
			c.visited++
			if drop(el.Value.(*cacheEntry).res) {
				c.remove(el)
				purged++
			}
		}
	}
	for _, cons := range touched {
		for _, con := range cons {
			var smallest map[*list.Element]struct{}
			for i := range con.NumClasses() {
				if set := c.byClass[con.ClassAt(i)]; i == 0 || len(set) < len(smallest) {
					smallest = set
				}
			}
			sweep(smallest)
		}
	}
	return purged, c.order.Len()
}

// len returns the current number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
