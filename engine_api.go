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
//   - Catalog mutation: SwapCatalog (serve exactly this catalog) and
//     UpdateCatalog (apply these ops) go through one path. Each plans a
//     delta against the live generation, derives the next generation off to
//     the side — patched by structural sharing, or rebuilt from scratch when
//     the delta churns most of the catalog — and publishes it with one
//     atomic pointer store, without blocking in-flight optimizations. The
//     cache keeps every entry the delta cannot affect.
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

	// Mutation-side lineage state of the patch path, guarded by swapMu: the
	// append-only ordinal space bookkeeping and the index's re-homing
	// frequencies. nil until the first patch after a construction or a
	// rebuild.
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
// immutable after construction and replaced wholesale by each catalog
// mutation (a structural patch or a rebuild), so a query can never observe
// the catalog of one generation paired with the index or symbol space of
// another.
type engineState struct {
	index *index.Index  // inverted retrieval index over the generation
	syms  *symtab.Table // interned symbol space of the generation
	opt   *core.Optimizer
	epoch uint64

	// gen is the generation's catalog view: its ordinal space and
	// tombstones, whether it was compiled, restored or patched. The
	// *Catalog form is materialized lazily, only when someone asks; a
	// compiled generation starts with the catalog it was compiled from.
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
		all := st.gen.Constraints()
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
// on first use.
func (st *engineState) catalogView() *Catalog {
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
	var st *engineState
	if cfg.snap != nil {
		// Warm restore: adopt the snapshot's compiled generation instead of
		// building one.
		if h := schemaHash(s); h != cfg.snap.info.SchemaHash {
			return nil, fmt.Errorf("sqo: snapshot was compiled against schema %#016x, engine schema is %#016x", cfg.snap.info.SchemaHash, h)
		}
		st = e.restoreState(cfg.snap.model, 0)
	} else if st, err = e.buildState(cfg.catalog, 0); err != nil {
		return nil, err
	}
	e.state.Store(st)
	// Only construction reads these; holding them would pin the first
	// generation (a restored snapshot holds a whole index and symbol table).
	e.cfg.catalog, e.cfg.snap = nil, nil
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

// buildState compiles one catalog generation from scratch: validate, compile
// the interned symbol space, build the inverted index over it, and construct
// the optimizer. The symbol space is compiled exactly once per generation and
// shared by the index and the optimizer's transformation tables. The
// generation's ordinal space is dense, and its catalog view is cat itself.
func (e *Engine) buildState(cat *Catalog, epoch uint64) (*engineState, error) {
	if err := cat.Validate(e.schema); err != nil {
		return nil, fmt.Errorf("sqo: catalog does not fit the schema: %w", err)
	}
	all := cat.All()
	syms := symtab.Compile(e.schema, all)
	ix := index.BuildWith(all, syms)
	st := &engineState{
		index: ix,
		syms:  syms,
		gen:   delta.NewGen(constraint.OrdinalsOf(all), nil),
		opt:   core.NewOptimizerSymbols(e.schema, ix, syms, e.effectiveCoreOpts()),
		epoch: epoch,
	}
	st.catOnce.Do(func() { st.lazyCat = cat })
	return st, nil
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
	return fanOut(ctx, e.cfg.workers, qs, e.Optimize)
}

// fanOut runs do over every query of qs on at most workers goroutines and
// returns the results positionally aligned with qs. The first failure
// cancels the rest and is returned as "query i: err"; a parent context
// cancelled before every query ran is reported as its error. On any error
// the partial results are discarded. An empty qs returns nil.
func fanOut[T any](ctx context.Context, workers int, qs []*Query, do func(context.Context, *Query) (T, error)) ([]T, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]T, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var failOnce sync.Once
	var firstErr error
	for range min(workers, len(qs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(qs) && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				res, err := do(ctx, qs[i])
				if err != nil {
					failOnce.Do(func() { firstErr = fmt.Errorf("query %d: %w", i, err); cancel() })
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err() // no worker failed, but the parent may have cut the run short
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// SwapCatalog atomically replaces the engine's declared constraint catalog
// with cat. The longest prefix of cat that the live generation holds in the
// same order survives, every other live constraint is removed and the rest
// of cat appended (delta.Gen.Swap), so the engine then serves exactly cat,
// in cat's order, as NewEngine(WithCatalog(cat)) would. That delta takes
// UpdateCatalog's path: patched, keeping every cached result it cannot
// affect, or — when it churns most of the catalog — rebuilt from cat with
// the cache purged. A swap to the catalog already served publishes nothing.
// In-flight optimizations finish against the old generation and the cache
// refuses their results. On error (a constraint that does not fit the
// schema) the engine keeps serving the old generation, epoch and cache
// untouched.
//
// This is the knob for derived state rules (DeriveRules): merge them in when
// mined, swap the declared set back in when the data shifts.
func (e *Engine) SwapCatalog(cat *Catalog) error {
	if cat == nil {
		return errors.New("sqo: SwapCatalog requires a catalog")
	}
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	cur := e.state.Load()
	all := cat.All()
	ops, kept := cur.gen.Swap(all)
	added := len(all) - kept
	var err error
	switch {
	case len(ops) == 0:
		// The generation already serves exactly cat.
	case rebuilds(cur.gen.Dead(), len(ops)-added, added, kept):
		// Decided before a lineage is seeded or an op planned: compile cat.
		_, err = e.rebuild(cur, cat)
	default:
		_, err = e.apply(cur, ops)
	}
	if err != nil {
		return err
	}
	e.swaps.Add(1)
	return nil
}

// UpdateCatalog applies an incremental delta to the engine's declared
// constraint catalog, in work proportional to the delta. The generation's
// symbol space and index are patched by structural sharing (removed
// constraints leave tombstoned ordinals), and the result cache drops only
// the entries whose recorded dependency set intersects the delta — they
// consulted a removed constraint, or an added constraint is relevant to
// their query — found through the cache's class postings; every other entry
// keeps serving as it is. Once tombstones would outnumber live constraints,
// or the delta replaces at least as many constraints as it leaves alone,
// the generation is rebuilt instead (the report says so) and the whole
// cache purged.
//
// In-flight optimizations finish against the old generation, exactly as
// with SwapCatalog. On error (unknown removal ID, invalid constraint,
// duplicate ID) the engine keeps serving the old generation with epoch and
// cache untouched.
func (e *Engine) UpdateCatalog(d *CatalogDelta) (UpdateReport, error) {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	cur := e.state.Load()
	if d.Empty() {
		return UpdateReport{Epoch: cur.epoch, Incremental: true}, nil
	}
	rep, err := e.apply(cur, d.ops)
	if err == nil && rep.Epoch != cur.epoch {
		e.updates.Add(1)
	}
	return rep, err
}

// rebuilds is the one patch-or-rebuild rule of catalog mutation. A plan
// removing removed and adding added constraints, leaving survivors alone,
// on a lineage holding dead tombstones, is compiled from scratch when, past
// a small floor, its tombstones would outnumber the live catalog (a patch
// would carry more garbage than catalog) or it replaces at least as much
// as it keeps (a patch would copy more than it shares).
func rebuilds(dead, removed, added, survivors int) bool {
	garbage, churn := dead+removed, removed+added
	return garbage > 64 && garbage > survivors+added || churn > 64 && churn >= survivors
}

// apply plans ops against the live generation cur and publishes the next
// generation, patched or rebuilt as rebuilds decides; the caller holds
// swapMu. A plan that changes nothing publishes nothing and reports cur's
// epoch.
func (e *Engine) apply(cur *engineState, ops []delta.Op) (UpdateReport, error) {
	if e.mut == nil {
		// First delta on this lineage: seed the mutation-side state from the
		// generation's ordinal space, tombstones included.
		e.mut = delta.NewStateFromGen(cur.gen)
		e.idxLin = index.NewLineage(cur.index)
	}
	plan, err := e.mut.Plan(ops, e.schema)
	if err != nil {
		return UpdateReport{}, err
	}
	rep := UpdateReport{Added: len(plan.Added), Removed: len(plan.RemovedOrds), Epoch: cur.epoch, Incremental: true}
	if plan.Empty() {
		return rep, nil
	}
	rep.Epoch++
	if rebuilds(e.mut.Dead(), len(plan.RemovedOrds), len(plan.Added), e.mut.Live()-len(plan.RemovedOrds)) {
		cat, _, err := delta.Rebuild(cur.catalogView(), ops, e.schema)
		if err != nil {
			return UpdateReport{}, err
		}
		rep.Incremental = false
		if rep.CachePurged, err = e.rebuild(cur, cat); err != nil {
			return UpdateReport{}, err
		}
		return rep, nil
	}

	newSyms, addedOrds := cur.syms.Patch(plan.Added)
	newIndex := cur.index.Patch(e.idxLin, newSyms, plan.RemovedOrds, plan.Added, addedOrds)
	e.mut.Commit(plan, addedOrds)
	st := &engineState{
		index: newIndex,
		syms:  newSyms,
		gen:   e.mut.Snapshot(),
		opt:   core.NewOptimizerSymbols(e.schema, newIndex, newSyms, e.effectiveCoreOpts()),
		epoch: rep.Epoch,
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
	return rep, nil
}

// rebuild compiles cat from scratch as the generation after cur and
// publishes it, purging the whole cache first; the new generation starts a
// dense lineage. It returns how many cache entries the purge dropped. On
// error (cat does not fit the schema) nothing has changed.
func (e *Engine) rebuild(cur *engineState, cat *Catalog) (int, error) {
	st, err := e.buildState(cat, cur.epoch+1)
	if err != nil {
		return 0, err
	}
	// Purge before publishing: a reader on the new generation must never
	// meet an entry of the old one, and the purge's fence refuses the old
	// generation's in-flight puts.
	purged := 0
	if e.cache != nil {
		purged = e.cache.purge(st.epoch)
		e.cachePurged.Add(int64(purged))
	}
	e.state.Store(st)
	e.mut, e.idxLin = nil, nil
	return purged, nil
}

// purgeCheck builds the surgical invalidation predicate of one delta: drop
// a cached result when its dependency set contains a removed constraint, or
// when an added constraint is relevant to its query (it would change the
// relevant set, and so possibly the output). Everything else provably
// optimizes identically under the new generation and survives.
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
		for _, ord := range r.Deps() {
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
	// false when the patch-or-rebuild rule folded the delta into a full
	// rebuild.
	Incremental bool
	// CachePurged counts the result-cache entries the delta dropped;
	// CacheSurvived counts the entries left cached after the update, which
	// keep serving under the new generation. Both zero when caching is
	// disabled; a rebuild purges every entry.
	CachePurged, CacheSurvived int
}

// Schema returns the schema the engine was built over.
func (e *Engine) Schema() *Schema { return e.schema }

// Workers returns the resolved width of the batch worker pool — WithWorkers,
// or GOMAXPROCS at construction when unset.
func (e *Engine) Workers() int { return e.cfg.workers }

// Catalog returns the currently declared catalog. For a patched or
// snapshot-restored generation the catalog object is materialized on first
// call, in the generation's live order; a rebuilt generation returns the
// catalog it was compiled from.
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
	// dropped by catalog mutations (UpdateCatalog and SwapCatalog; a
	// rebuild drops every entry) versus left cached by their sweeps.
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
		Constraints:       st.gen.Live(),
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
