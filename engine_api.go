package sqo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sqo/internal/canon"
	"sqo/internal/constraint"
	"sqo/internal/core"
	"sqo/internal/delta"
	"sqo/internal/exec"
	"sqo/internal/faultinject"
	"sqo/internal/index"
	"sqo/internal/obs"
	"sqo/internal/predicate"
	"sqo/internal/resilience"
	"sqo/internal/symtab"
)

// Engine is the long-lived, concurrency-safe front door to the optimizer.
// NewEngine wires the whole serving pipeline once at construction — schema,
// constraint catalog compiled into an interned symbol space, the inverted
// constraint index over it, cost model — and then serves Optimize and
// OptimizeBatch from any number of goroutines, amortizing that setup across
// heavy repeated traffic.
//
// Three production concerns ride on top of the paper's algorithm:
//
//   - Context awareness: Optimize honors cancellation and deadlines inside
//     the transformation loop.
//   - Result caching: with WithCache, queries are keyed by fingerprint into
//     an LRU cache — optionally by *canonical* fingerprint (duplicates
//     dropped, dominated bounds pruned, lists sorted), and optionally with a
//     subsumption lookup that answers a contained query from a cached
//     generalization plus a residual pass — so a near-duplicate workload
//     pays the O(m·n) table work once per distinct canonical query.
//   - Hot catalog swap: SwapCatalog atomically replaces the declared
//     constraint set — rebuilding the symbol space and index off to the side
//     and flipping an atomic pointer — without blocking in-flight
//     optimizations.
//
// On a cache hit the same *Result is returned to every caller; treat results
// as read-only. All accessor methods on Result are safe to share.
type Engine struct {
	schema *Schema
	cfg    engineConfig
	state  atomic.Pointer[engineState]
	cache  *resultCache   // nil when caching is disabled
	runner *exec.Executor // nil without WithDatabase

	// subsume is true when the containment lookup is active: cache
	// configured with CacheConfig.Subsume and the cost model is the
	// query-insensitive heuristic (under a statistics model formulation
	// depends on the whole query, so a derived result could diverge from
	// cold optimization).
	subsume bool

	// degrade is the serving degradation level (resilience.Level*), set by
	// an overloaded serving layer and read once per Optimize. Every level is
	// answer-preserving: it gates which optimizations of the *serving path*
	// run (subsumption probing, canonical cache keys), never which semantic
	// transformations apply — see SetDegradation.
	degrade atomic.Int32

	// quar short-circuits queries whose optimization panicked repeatedly
	// (fingerprint-keyed), so one reproducible crash input cannot take the
	// node down panic by panic.
	quar *resilience.Quarantine

	// faults injects optimizer/executor panics under SQO_FAULTS; nil in
	// production.
	faults *faultinject.Injector

	panicsRecovered atomic.Int64

	swapMu sync.Mutex // serializes SwapCatalog/UpdateCatalog (readers never take it)

	// Mutation-side lineage state of the incremental update path, guarded
	// by swapMu: the append-only ordinal space bookkeeping and the index's
	// re-homing frequencies. nil until the first UpdateCatalog after a
	// construction or full swap.
	mut    *delta.State
	idxLin *index.Lineage

	optimizations atomic.Int64
	swaps         atomic.Int64
	updates       atomic.Int64
	cachePurged   atomic.Int64
	cacheSurvived atomic.Int64

	// End-to-end execution counters (WithDatabase): executions served and
	// the cumulative physical work their meters recorded.
	executions  atomic.Int64
	execTuples  atomic.Int64
	execPages   atomic.Int64
	execProbes  atomic.Int64
	execFetches atomic.Int64
}

// engineState is everything derived from one catalog generation. It is
// immutable after construction and replaced wholesale by SwapCatalog (full
// rebuild) or UpdateCatalog (structural patch), so a query can never observe
// the catalog of one generation paired with the index or symbol space of
// another.
type engineState struct {
	declared *Catalog         // as supplied; nil for a delta-built or restored generation
	index    *ConstraintIndex // inverted retrieval index over the generation
	syms     *symtab.Table    // interned symbol space of the generation
	opt      *core.Optimizer
	epoch    uint64

	// gen is the catalog view of a delta-built or snapshot-restored
	// generation (declared is nil then). The *Catalog form is materialized
	// lazily, only when someone asks.
	gen     *delta.Gen
	catOnce sync.Once
	lazyCat *Catalog

	// mentioned is the lazily-built set of every (class, attr) any live
	// constraint mentions — antecedents and consequents, selective or
	// join. The subsumption check uses it to prove a residual conjunct
	// inert: a predicate on an unmentioned attribute can never fire, be
	// implied by, or contradict anything the transformation table does.
	mentionOnce sync.Once
	mentioned   map[predicate.AttrRef]struct{}
}

// mentionSet returns the generation's constraint-mentioned attribute set,
// building it on first use.
func (st *engineState) mentionSet() map[predicate.AttrRef]struct{} {
	st.mentionOnce.Do(func() {
		var all []*Constraint
		if st.gen != nil {
			all = st.gen.Constraints()
		} else {
			all = st.declared.All()
		}
		m := make(map[predicate.AttrRef]struct{}, len(all)*2)
		note := func(p predicate.Predicate) {
			m[p.Left] = struct{}{}
			if p.IsJoin() {
				m[p.RightAttr] = struct{}{}
			}
		}
		for _, c := range all {
			for _, p := range c.Antecedents {
				note(p)
			}
			note(c.Consequent)
		}
		st.mentioned = m
	})
	return st.mentioned
}

// catalogView returns the generation's declared catalog, materializing it
// on first use for delta-built generations.
func (st *engineState) catalogView() *Catalog {
	if st.gen == nil {
		return st.declared
	}
	st.catOnce.Do(func() {
		cat, err := constraint.NewCatalog(st.gen.Constraints()...)
		if err != nil {
			// Delta validation guarantees unique IDs among live
			// constraints; failing here means the lineage bookkeeping is
			// corrupt, which must surface at its source, not as a nil
			// catalog somewhere downstream.
			panic("sqo: delta generation failed to materialize: " + err.Error())
		}
		st.lazyCat = cat
	})
	return st.lazyCat
}

// constraintCount returns the number of live constraints of the generation.
func (st *engineState) constraintCount() int {
	if st.gen != nil {
		return st.gen.Live()
	}
	return st.declared.Len()
}

// NewEngine builds an engine over the schema. Exactly one of WithCatalog and
// WithSnapshot must be supplied; everything else has defaults (all rules,
// heuristic cost model, no cache, GOMAXPROCS batch workers).
func NewEngine(s *Schema, opts ...EngineOption) (*Engine, error) {
	if s == nil {
		return nil, errors.New("sqo: NewEngine requires a schema")
	}
	cfg := engineConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.snap != nil && cfg.catalog != nil:
		return nil, errors.New("sqo: WithSnapshot and WithCatalog are mutually exclusive")
	case cfg.catalog == nil && cfg.snap == nil:
		return nil, errors.New("sqo: NewEngine requires WithCatalog or WithSnapshot")
	}
	if cfg.cache.Subsume {
		cfg.cache.Canonicalize = true
	}
	e := &Engine{schema: s, cfg: cfg}
	e.quar = resilience.NewQuarantine(resilience.QuarantineConfig{})
	faults, err := faultinject.FromEnv()
	if err != nil {
		return nil, err
	}
	if faults.Active("optimize.") || faults.Active("execute.") {
		e.faults = faults
	}
	if cfg.cache.Capacity > 0 {
		e.cache = newResultCache(cfg.cache.Capacity)
		if cfg.cache.Subsume {
			// The containment derivation replays formulation decisions;
			// that is only sound when those decisions cannot depend on
			// the extra conjuncts, i.e. under the query-insensitive
			// heuristic cost model.
			if _, heuristic := e.effectiveCoreOpts().Cost.(HeuristicCost); heuristic {
				e.subsume = true
				e.cache.enableSubsumption()
			}
		}
	}
	if cfg.db != nil {
		if faults.Active("storage.") {
			e.runner = exec.NewWith(cfg.db, faultinject.WrapDB(cfg.db, faults))
		} else {
			e.runner = exec.New(cfg.db)
		}
	}
	if cfg.snap != nil {
		// Warm restore: adopt the snapshot's compiled generation instead of
		// building one.
		if h := schemaHash(s); h != cfg.snap.info.SchemaHash {
			return nil, fmt.Errorf("sqo: snapshot was compiled against schema %#016x, engine schema is %#016x", cfg.snap.info.SchemaHash, h)
		}
		e.state.Store(e.restoreState(cfg.snap.model, 0))
		return e, nil
	}
	st, err := e.buildState(cfg.catalog, 0)
	if err != nil {
		return nil, err
	}
	e.state.Store(st)
	return e, nil
}

// effectiveCoreOpts resolves the engine's construction-time optimizer
// options into the form every generation is built with — swap-built
// (buildState) and delta-built (UpdateCatalog) generations must configure
// their optimizers identically.
func (e *Engine) effectiveCoreOpts() Options {
	opts := e.cfg.core
	if opts.Cost == nil {
		opts.Cost = HeuristicCost{Schema: e.schema}
	}
	// Dependency sets exist to invalidate cached results surgically; with
	// no cache they would be a wasted allocation per optimization.
	opts.RecordDeps = opts.RecordDeps || e.cache != nil
	return opts
}

// buildState materializes one catalog generation: validate, compile the
// interned symbol space, build the inverted index over it, and construct the
// optimizer. The symbol space is compiled exactly once per generation and
// shared by the index and the optimizer's transformation tables.
func (e *Engine) buildState(cat *Catalog, epoch uint64) (*engineState, error) {
	if err := cat.Validate(e.schema); err != nil {
		return nil, fmt.Errorf("sqo: catalog does not fit the schema: %w", err)
	}
	syms := symtab.Compile(e.schema, cat.All())
	ix := index.BuildWith(cat.All(), syms)
	return &engineState{
		declared: cat,
		index:    ix,
		syms:     syms,
		opt:      core.NewOptimizerSymbols(e.schema, ix, syms, e.effectiveCoreOpts()),
		epoch:    epoch,
	}, nil
}

// Optimize runs the semantic optimization of q against the current catalog
// generation, serving from the result cache when possible. It is safe to
// call from any number of goroutines. Cancellation and deadlines on ctx are
// honored inside the transformation loop; on cancellation the error is
// ctx.Err() and no result is cached.
func (e *Engine) Optimize(ctx context.Context, q *Query) (*Result, error) {
	if q == nil {
		return nil, errors.New("sqo: Optimize requires a query")
	}
	st := e.state.Load()
	// The degradation level gates serving-path optimizations only. Each gate
	// is answer-preserving: disabling subsumption just skips a derivation
	// shortcut, and disabling canonicalization keys the cache by the raw
	// fingerprint — a raw-keyed and a canonical-keyed entry can only collide
	// when the query already is its own canonical form, in which case they
	// are the same bytes (see canonFingerprint).
	level := int(e.degrade.Load())
	// tr is this request's span recorder (nil for the overwhelming
	// majority of traffic); every use below is nil-safe and free of both
	// allocations and clock reads when disabled.
	tr := obs.FromContext(ctx)
	var key QueryFingerprint
	canonMode := e.cache != nil && e.cfg.cache.Canonicalize && level < resilience.LevelNoCanon
	var red *canon.Reduction
	if e.cache != nil {
		at := tr.StartSpan()
		if canonMode {
			// Key by the canonical form, computed streaming over the
			// pooled reduction scratch — near-duplicates (duplicated,
			// implied or mergeable conjuncts) collapse to one key
			// without materializing a query on the hit path.
			red = reductionPool.Get().(*canon.Reduction)
			key = canonFingerprint(q, red)
			tr.EndSpan(obs.StageCanon, at)
			at = tr.StartSpan()
		} else {
			key = Fingerprint(q)
		}
		tr.SetFingerprint(key.Hi, key.Lo)
		res, ok := e.cache.get(key, st.epoch)
		tr.EndSpan(obs.StageCacheProbe, at)
		if ok {
			if canonMode {
				if red.Changed {
					e.cache.canonHits.Add(1)
				}
				reductionPool.Put(red)
			}
			e.optimizations.Add(1)
			return res, nil
		}
	}
	// Poison-query short circuit: a fingerprint that panicked the optimizer
	// repeatedly is refused here, before any transformation work. The check
	// sits past the cache lookup on purpose — the 0-alloc hit path never
	// pays for it, and a poison query cannot be cached (it never produced a
	// result).
	qk := e.quarKey(key, q)
	tr.SetFingerprint(qk[0], qk[1])
	if e.quar.Blocked(qk) {
		if canonMode {
			reductionPool.Put(red)
		}
		return nil, &QuarantinedError{Fingerprint: QueryFingerprint{Hi: qk[0], Lo: qk[1]}}
	}
	runQ := q
	if canonMode {
		// Miss: optimize the canonical form, so the cached result is
		// byte-identical to a cold optimization of that form no matter
		// which syntactic variant arrived first.
		at := tr.StartSpan()
		runQ = canon.Canonicalize(q, red)
		reductionPool.Put(red)
		tr.EndSpan(obs.StageCanon, at)
		if e.subsume && level < resilience.LevelNoSubsume {
			at = tr.StartSpan()
			res := e.trySubsume(st, key, runQ)
			tr.EndSpan(obs.StageSubsume, at)
			if res != nil {
				e.optimizations.Add(1)
				return res, nil
			}
		}
	}
	// Apply the default deadline only past the cache: a hit never consults
	// the context, so it should not pay for a timer either.
	if e.cfg.defaultDeadline > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, e.cfg.defaultDeadline)
			defer cancel()
		}
	}
	res, err := e.optimizeGuarded(ctx, st, runQ, qk)
	if err != nil {
		return nil, err
	}
	e.optimizations.Add(1)
	if e.cache != nil {
		if e.subsume && canonMode {
			e.cache.putGen(key, envelopeFingerprint(runQ), st.epoch, runQ, res)
		} else {
			e.cache.put(key, st.epoch, res)
		}
	}
	return res, nil
}

// reductionPool recycles canonicalization scratch across Optimize calls so
// the canonical-key lookup allocates nothing in steady state.
var reductionPool = sync.Pool{New: func() any { return new(canon.Reduction) }}

// OptimizeBatch optimizes every query of a workload concurrently on the
// engine's worker pool (WithWorkers), returning results positionally aligned
// with qs. The first failing query cancels the rest; on any error the
// partial results are discarded and only the error is returned.
func (e *Engine) OptimizeBatch(ctx context.Context, qs []*Query) ([]*Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	workers := min(e.cfg.workers, len(qs))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*Result, len(qs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res, err := e.Optimize(ctx, qs[i])
				if err != nil {
					fail(fmt.Errorf("query %d: %w", i, err))
					return
				}
				results[i] = res
			}
		}()
	}
feed:
	for i := range qs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr == nil {
		// No worker failed, yet the feed may have been cut short by the
		// parent context.
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// SwapCatalog atomically replaces the engine's declared constraint catalog:
// the symbol space and constraint index are rebuilt off to the side, then
// published with a single pointer store. In-flight optimizations finish
// against the old generation; the result cache is purged before the new
// generation is published, and from then on refuses results computed on
// the old one, so no stale optimization is ever served. On error the
// engine keeps serving the old catalog.
//
// This is the knob for derived state rules (DeriveRules): merge them in when
// mined, swap the declared set back in when the data shifts.
func (e *Engine) SwapCatalog(cat *Catalog) error {
	if cat == nil {
		return errors.New("sqo: SwapCatalog requires a catalog")
	}
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	st, err := e.buildState(cat, e.state.Load().epoch+1)
	if err != nil {
		return err
	}
	// Purge before publishing: a reader on the new generation must never
	// meet an entry of the old one, and the purge's fence refuses the old
	// generation's in-flight puts.
	if e.cache != nil {
		e.cache.purge(st.epoch)
	}
	e.state.Store(st)
	e.mut, e.idxLin = nil, nil // a full rebuild starts a fresh ordinal lineage
	e.swaps.Add(1)
	return nil
}

// UpdateCatalog applies an incremental delta to the engine's declared
// constraint catalog — the O(|delta|) alternative to SwapCatalog's full
// rebuild. The current generation's interned symbol space and inverted index
// are patched by structural sharing (untouched IDs, posting lists and
// adjacency rows are shared with the prior generation; removed constraints
// leave tombstoned ordinals), and the result cache is invalidated
// surgically: only entries whose recorded dependency set intersects the
// delta — they consulted a removed constraint, or an added constraint is
// relevant to their query — are dropped, while every other entry keeps
// serving as it is. The sweep reaches its candidates through the cache's
// class postings, so it costs the entries the delta's classes reach, not
// the size of the cache.
//
// In-flight optimizations finish against the old generation, exactly as
// with SwapCatalog. On error (unknown removal ID, invalid constraint,
// duplicate ID) the engine keeps serving the old generation with epoch and
// cache untouched.
//
// Once tombstones outnumber live constraints, the delta is folded into a
// full rebuild instead (tombstone compaction; the report says so), with
// SwapCatalog's full cache purge.
func (e *Engine) UpdateCatalog(d *CatalogDelta) (UpdateReport, error) {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	cur := e.state.Load()
	if d.Empty() {
		return UpdateReport{Epoch: cur.epoch, Incremental: true}, nil
	}
	if e.mut == nil {
		// First delta of this lineage: seed the mutation-side state from
		// the generation's catalog order (the ordinal space the symbol
		// table and index were compiled over). A snapshot-restored engine
		// has no declared catalog — its ordinal space comes from the
		// restored generation, tombstones included.
		if cur.gen != nil {
			e.mut = delta.NewStateFromGen(cur.gen)
		} else {
			e.mut = delta.NewState(cur.declared.All())
		}
		e.idxLin = index.NewLineage(cur.index)
	}
	plan, err := e.mut.Plan(d.ops, e.schema)
	if err != nil {
		return UpdateReport{}, err
	}
	if plan.Empty() {
		return UpdateReport{Epoch: cur.epoch, Incremental: true}, nil // on the incremental path by construction
	}
	// Compaction: once tombstones outnumber live constraints the lineage
	// carries more garbage than catalog; fold the delta into a full
	// rebuild, which restarts the ordinal space dense.
	if dead := e.mut.Dead() + len(plan.RemovedOrds); dead > 64 && dead > e.mut.Live()-len(plan.RemovedOrds)+len(plan.Added) {
		return e.rebuildWith(cur, d)
	}

	newSyms, addedOrds := cur.syms.Patch(plan.Added)
	newIndex := cur.index.Patch(e.idxLin, newSyms, plan.RemovedOrds, plan.Added, addedOrds)
	e.mut.Commit(plan, addedOrds)

	st := &engineState{
		index: newIndex,
		syms:  newSyms,
		gen:   e.mut.Snapshot(),
		opt:   core.NewOptimizerSymbols(e.schema, newIndex, newSyms, e.effectiveCoreOpts()),
		epoch: cur.epoch + 1,
	}
	rep := UpdateReport{
		Added:       len(plan.Added),
		Removed:     len(plan.RemovedOrds),
		Epoch:       st.epoch,
		Incremental: true,
	}
	// Sweep before publishing: no reader can hold the new generation yet,
	// and once the sweep returns the cache refuses results computed on
	// the old one (see cache.update).
	if e.cache != nil {
		rep.CachePurged, rep.CacheSurvived = e.cache.update(st.epoch, purgeCheck(plan),
			plan.Removed, plan.Added)
		e.cachePurged.Add(int64(rep.CachePurged))
		e.cacheSurvived.Add(int64(rep.CacheSurvived))
	}
	e.state.Store(st)
	e.updates.Add(1)
	return rep, nil
}

// rebuildWith is UpdateCatalog's tombstone compaction: apply the delta to
// the declared catalog and rebuild the whole generation with a dense ordinal
// space and a full cache purge — the exact SwapCatalog semantics, driven by
// delta ops.
func (e *Engine) rebuildWith(cur *engineState, d *CatalogDelta) (UpdateReport, error) {
	newCat, plan, err := delta.Rebuild(cur.catalogView(), d.ops, e.schema)
	if err != nil {
		return UpdateReport{}, err
	}
	st, err := e.buildState(newCat, cur.epoch+1)
	if err != nil {
		return UpdateReport{}, err
	}
	rep := UpdateReport{
		Added:   len(plan.Added),
		Removed: len(plan.RemovedOrds),
		Epoch:   st.epoch,
	}
	// Purge before publishing, as SwapCatalog does.
	if e.cache != nil {
		rep.CachePurged = e.cache.purge(st.epoch)
		e.cachePurged.Add(int64(rep.CachePurged))
	}
	e.state.Store(st)
	e.mut, e.idxLin = nil, nil
	e.updates.Add(1)
	return rep, nil
}

// purgeCheck builds the surgical invalidation predicate of one delta: drop
// a cached result when its dependency set contains a removed constraint,
// when an added constraint is relevant to its query (it would change the
// relevant set, and so possibly the output), or when its dependency set is
// unknown. Everything else provably optimizes identically under the new
// generation and survives.
func purgeCheck(plan delta.Plan) func(*Result) bool {
	var maxOrd int32 = -1
	for _, ord := range plan.RemovedOrds {
		if ord > maxOrd {
			maxOrd = ord
		}
	}
	removed := make([]uint64, int(maxOrd+64)/64+1)
	for _, ord := range plan.RemovedOrds {
		removed[ord/64] |= 1 << (ord % 64)
	}
	return func(r *Result) bool {
		deps := r.Deps()
		if deps == nil {
			return true
		}
		for _, ord := range deps {
			if ord <= maxOrd && removed[ord/64]&(1<<(ord%64)) != 0 {
				return true
			}
		}
		for _, c := range plan.Added {
			if c.RelevantTo(r.Original) {
				return true
			}
		}
		return false
	}
}

// UpdateReport describes what one UpdateCatalog call did.
type UpdateReport struct {
	// Added and Removed count the constraints the delta actually added and
	// removed (after duplicate merging; a replace counts once in each).
	Added, Removed int
	// Epoch is the catalog generation now serving.
	Epoch uint64
	// Incremental is true when the generation was patched in place-by-copy;
	// false when tombstone compaction folded the delta into a full rebuild.
	Incremental bool
	// CachePurged counts the result-cache entries the delta dropped;
	// CacheSurvived counts the entries left cached after the update, which
	// keep serving under the new generation. Both zero when caching is
	// disabled; a compaction rebuild purges every entry.
	CachePurged, CacheSurvived int
}

// Schema returns the schema the engine was built over.
func (e *Engine) Schema() *Schema { return e.schema }

// Workers returns the resolved width of the batch worker pool — WithWorkers,
// or GOMAXPROCS at construction when unset.
func (e *Engine) Workers() int { return e.cfg.workers }

// Catalog returns the currently declared catalog. For a delta-built or
// snapshot-restored generation the catalog object is materialized on first
// call, in the generation's live order.
func (e *Engine) Catalog() *Catalog { return e.state.Load().catalogView() }

// CacheStats is the result cache's stats surface: the three-way hit
// breakdown (exact, canonical, subsumption), occupancy, and the surgical
// invalidation counters. All zero when caching is disabled.
type CacheStats struct {
	// ExactHits counts lookups served because the (canonical, when
	// Canonicalize is on) fingerprint matched a cached entry and the
	// incoming query was already in that form.
	ExactHits int64
	// CanonicalHits counts lookups served only because canonicalization
	// collapsed the query — the raw conjunct multiset differed from the
	// cached entry's (duplicates dropped, bounds merged or pruned).
	CanonicalHits int64
	// SubsumptionHits counts lookups served by deriving the answer from a
	// cached generalization plus residual conjuncts.
	SubsumptionHits int64
	// Misses counts lookups that fell through to cold optimization.
	Misses int64
	// Evictions counts LRU evictions.
	Evictions int64
	// ResidualPredicates is the total number of residual conjuncts applied
	// across all subsumption hits — the cumulative residual-pass cost.
	ResidualPredicates int64
	// Size and Capacity are the current and maximum number of cached
	// results.
	Size     int
	Capacity int
	// UpdatePurged and UpdateSurvived are cumulative counts of entries
	// dropped by incremental catalog updates versus left cached by them.
	UpdatePurged   int64
	UpdateSurvived int64
	// Canonicalize and Subsume echo the active cache configuration
	// (Subsume reports the *effective* state — false when the
	// configuration requested it but the engine had to serve without,
	// e.g. under a statistics cost model).
	Canonicalize bool
	Subsume      bool
}

// Hits returns the total lookups served from the cache, all three kinds.
func (c CacheStats) Hits() int64 { return c.ExactHits + c.CanonicalHits + c.SubsumptionHits }

// EngineStats is a point-in-time snapshot of an engine's serving counters.
type EngineStats struct {
	// Optimizations counts Optimize calls served, cache hits included.
	Optimizations int64
	// Cache is the result cache's stats surface, including the three-way
	// exact / canonical / subsumption hit breakdown.
	Cache CacheStats
	// CatalogSwaps counts successful SwapCatalog calls; CatalogUpdates
	// counts successful (non-empty) UpdateCatalog calls; Epoch is the
	// current catalog generation (0 = as constructed).
	CatalogSwaps   int64
	CatalogUpdates int64
	Epoch          uint64
	// Constraints is the number of live constraints in the current catalog
	// generation.
	Constraints int
	// Executions counts end-to-end Execute/ExecuteRaw calls served;
	// ExecTuplesScanned, ExecPagesScanned, ExecIndexProbes and
	// ExecObjectFetches accumulate the physical work their meters recorded.
	// All zero without WithDatabase.
	Executions        int64
	ExecTuplesScanned int64
	ExecPagesScanned  int64
	ExecIndexProbes   int64
	ExecObjectFetches int64
	// ConstraintIndex describes the current generation's inverted
	// retrieval index.
	ConstraintIndex IndexStats
	// DegradationLevel is the serving degradation level in force (0 =
	// full serving; see SetDegradation); PanicsRecovered counts panics the
	// optimizer/executor guards converted into errors; Quarantine describes
	// the poison-query register.
	DegradationLevel int
	PanicsRecovered  int64
	Quarantine       resilience.QuarantineStats
}

// Stats returns a snapshot of the engine's counters. Safe to call
// concurrently with serving traffic.
func (e *Engine) Stats() EngineStats {
	st := e.state.Load()
	s := EngineStats{
		Optimizations:     e.optimizations.Load(),
		CatalogSwaps:      e.swaps.Load(),
		CatalogUpdates:    e.updates.Load(),
		Epoch:             st.epoch,
		Constraints:       st.constraintCount(),
		Executions:        e.executions.Load(),
		ExecTuplesScanned: e.execTuples.Load(),
		ExecPagesScanned:  e.execPages.Load(),
		ExecIndexProbes:   e.execProbes.Load(),
		ExecObjectFetches: e.execFetches.Load(),
		ConstraintIndex:   st.index.Stats(),
		DegradationLevel:  int(e.degrade.Load()),
		PanicsRecovered:   e.panicsRecovered.Load(),
		Quarantine:        e.quar.Stats(),
	}
	if e.cache != nil {
		// Load the sub-counters before the totals: each hit bumps the
		// total first, so this order can only under-report the
		// breakdown, never drive ExactHits or Misses negative.
		canonHits := e.cache.canonHits.Load()
		subHits := e.cache.subHits.Load()
		hits := e.cache.hits.Load()
		misses := e.cache.misses.Load()
		s.Cache = CacheStats{
			ExactHits:          hits - canonHits,
			CanonicalHits:      canonHits,
			SubsumptionHits:    subHits,
			Misses:             misses - subHits,
			Evictions:          e.cache.evictions.Load(),
			ResidualPredicates: e.cache.residual.Load(),
			Size:               e.cache.len(),
			Capacity:           e.cache.cap,
			UpdatePurged:       e.cachePurged.Load(),
			UpdateSurvived:     e.cacheSurvived.Load(),
			Canonicalize:       e.cfg.cache.Canonicalize,
			Subsume:            e.subsume,
		}
	}
	return s
}
