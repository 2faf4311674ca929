package sqo

import "time"

// EngineOption configures a NewEngine call. Options are applied in order, so
// when two options touch the same setting the later one wins; granular
// options (WithRules, WithBudget, …) therefore override the corresponding
// field of an earlier WithOptimizerOptions, and vice versa.
type EngineOption func(*engineConfig)

// engineConfig is the accumulated construction-time configuration of an
// Engine. It is frozen at NewEngine; catalog mutations derive new generations
// (symbol space, index, optimizer) but never change the configuration.
type engineConfig struct {
	catalog         *Catalog  // read by NewEngine only, then dropped
	snap            *Snapshot // read by NewEngine only, then dropped
	core            Options
	cache           CacheConfig
	workers         int
	defaultDeadline time.Duration
	db              *Database
}

// WithCatalog supplies the declared semantic-constraint catalog. The catalog
// is validated against the schema at construction and can later be replaced
// with Engine.SwapCatalog or mutated with Engine.UpdateCatalog, both of
// which apply a delta and keep the cached results it cannot affect.
// Exactly one of WithCatalog and WithSnapshot must be given.
func WithCatalog(cat *Catalog) EngineOption {
	return func(c *engineConfig) { c.catalog = cat }
}

// WithCostModel supplies the cost model used by query formulation. The model
// must be safe for concurrent use (both CostModel and HeuristicCost are).
// The default is HeuristicCost over the engine's schema.
func WithCostModel(m CostModelInterface) EngineOption {
	return func(c *engineConfig) { c.core.Cost = m }
}

// WithRules selects the active transformation rules (default AllRules).
func WithRules(rs RuleSet) EngineOption {
	return func(c *engineConfig) { c.core.Rules = rs }
}

// WithBudget caps the number of transformations per query (Section 4);
// zero means unlimited.
func WithBudget(n int) EngineOption {
	return func(c *engineConfig) { c.core.Budget = n }
}

// WithPriorities turns the transformation queue into the Section 4 priority
// queue: index introductions first, then eliminations, then introductions.
func WithPriorities() EngineOption {
	return func(c *engineConfig) { c.core.UsePriorities = true }
}

// WithContradictionDetection proves queries empty when two implied
// predicates contradict (extension; off when reproducing the paper's
// tables).
func WithContradictionDetection() EngineOption {
	return func(c *engineConfig) { c.core.DetectContradictions = true }
}

// WithOptimizerOptions replaces the full core optimizer Options wholesale —
// the escape hatch for settings without a granular option
// (DisableImpliedAntecedents, DisableSubsumption, …).
func WithOptimizerOptions(o Options) EngineOption {
	return func(c *engineConfig) { c.core = o }
}

// CacheConfig configures the engine's result cache — one struct for every
// cache knob, passed through WithCache.
type CacheConfig struct {
	// Capacity is the maximum number of cached optimized queries.
	// Capacity <= 0 disables caching entirely.
	Capacity int
	// Canonicalize keys the cache by the query's canonical form
	// (CanonicalizeQuery) instead of the raw conjunct multiset: duplicate
	// and implied conjuncts are dropped and equal interval bounds merged
	// before fingerprinting, so syntactic near-duplicates share one slot.
	// Cached results then answer the canonical query — Result.Original is
	// the canonical form, not the verbatim input.
	Canonicalize bool
	// Subsume additionally probes cached generalizations on a canonical
	// miss: when a cached query q provably contains the incoming q ∧ extra
	// (same projection, joins, relationships and classes; extra selective
	// conjuncts on attributes no constraint mentions), the answer is
	// derived from the cached optimization plus a residual pass instead of
	// re-running the transformation table. Derivations are byte-identical
	// to cold optimization (the differential suite enforces it); queries
	// outside the provable class fall through to cold optimization.
	// Subsume implies Canonicalize. It requires the default heuristic cost
	// model — under a statistics cost model formulation is query-dependent,
	// so the engine silently serves without subsumption.
	Subsume bool
}

// WithCache configures the result cache from one CacheConfig — capacity,
// canonicalization, subsumption. A later WithCache overrides an earlier one
// wholesale.
func WithCache(cc CacheConfig) EngineOption {
	return func(c *engineConfig) { c.cache = cc }
}

// WithWorkers sets the number of goroutines OptimizeBatch and ExecuteBatch
// fan out to. The default is runtime.GOMAXPROCS(0); values below 1 reset to
// the default.
func WithWorkers(n int) EngineOption {
	return func(c *engineConfig) { c.workers = n }
}

// WithDatabase attaches a database instance to the engine, enabling the
// end-to-end execution paths (Execute, ExecuteRaw, ExecuteBatch): optimized
// queries are pushed into the metered storage layer with predicate push-down
// and early filtering, and the engine accumulates per-query meters into its
// serving counters. The database must be an instance of the engine's schema
// and must satisfy the constraint catalog (semantic constraints are integrity
// constraints; CheckCatalog verifies). The engine only reads the database;
// mutating it concurrently with Execute calls is the caller's hazard.
func WithDatabase(db *Database) EngineOption {
	return func(c *engineConfig) { c.db = db }
}

// WithDefaultDeadline gives every Optimize call (and, through the batch
// paths, every query of a batch) whose context carries no deadline of its
// own a deadline of d from the moment the call starts — the serving-layer
// safety net against a runaway query holding a worker forever. A context
// that already has a deadline is left alone, even a later one. d <= 0
// disables the default (the default).
func WithDefaultDeadline(d time.Duration) EngineOption {
	return func(c *engineConfig) { c.defaultDeadline = d }
}
