// Package core implements the paper's semantic query optimization algorithm
// (Section 3): the predicate tagging scheme, the transformation table, the
// transformation queue, tentative transformation, and final query
// formulation.
//
// The quintessence of the algorithm — quoting the paper — "is to avoid
// physically modifying queries during transformation, but to re-classify the
// predicates using existing classifications of the predicates and relevant
// semantic constraints". Every transformation only lowers predicate tags
// inside the table; the output query is formulated once, at the end, from the
// final tags. Because tag changes are monotone (Redundant < Optional <
// Imperative and tags only move down), the result is independent of the
// order in which constraints fire, and the whole transformation step runs in
// O(m·n) for m predicates and n relevant constraints.
package core

import (
	"fmt"
	"sync"

	"sqo/internal/constraint"
	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/schema"
	"sqo/internal/symtab"
)

// Tag is the classification of a predicate in a query: the paper's tp(p).
// The numeric order matters: transformations only ever lower a tag.
type Tag uint8

const (
	// TagRedundant marks predicates that affect neither the result nor
	// execution efficiency; they are dropped at formulation.
	TagRedundant Tag = iota
	// TagOptional marks predicates whose presence cannot change the
	// result but may change execution efficiency; the cost model decides
	// whether to retain them.
	TagOptional
	// TagImperative marks predicates whose removal would change the
	// result; they are always retained.
	TagImperative
)

// String returns the paper's name for the tag.
func (t Tag) String() string {
	switch t {
	case TagRedundant:
		return "redundant"
	case TagOptional:
		return "optional"
	case TagImperative:
		return "imperative"
	default:
		return fmt.Sprintf("tag(%d)", t)
	}
}

// Cell is one entry t(cᵢ, pⱼ) of the transformation table.
type Cell uint8

const (
	// CellNone: the predicate does not appear in the constraint ("_").
	CellNone Cell = iota
	// CellAbsentAntecedent: antecedent of the constraint, not in the query.
	CellAbsentAntecedent
	// CellPresentAntecedent: antecedent of the constraint, in the query
	// (or implied by it once introductions have happened).
	CellPresentAntecedent
	// CellAbsentConsequent: consequent of the constraint, not in the query.
	CellAbsentConsequent
	// CellImperative, CellOptional, CellRedundant: consequent of the
	// constraint, present, carrying the predicate's current tag.
	CellImperative
	CellOptional
	CellRedundant
)

// String renders the cell the way the paper's worked example does.
func (c Cell) String() string {
	switch c {
	case CellNone:
		return "_"
	case CellAbsentAntecedent:
		return "AbsentAntecedent"
	case CellPresentAntecedent:
		return "PresentAntecedent"
	case CellAbsentConsequent:
		return "AbsentConsequent"
	case CellImperative:
		return "Imperative"
	case CellOptional:
		return "Optional"
	case CellRedundant:
		return "Redundant"
	default:
		return fmt.Sprintf("cell(%d)", c)
	}
}

func cellForTag(t Tag) Cell {
	switch t {
	case TagRedundant:
		return CellRedundant
	case TagOptional:
		return CellOptional
	default:
		return CellImperative
	}
}

// ConstraintSource supplies the constraints relevant to a query.
// *index.Index (the inverted constraint index) and CatalogSource (a plain
// catalog scan) implement it. The optimizer resolves every constraint it
// retrieves through a compiled symbol space: the source's own (SymbolSource),
// one compiled for a CatalogSource, or one passed to NewOptimizerSymbols.
type ConstraintSource interface {
	Retrieve(q *query.Query) []*constraint.Constraint
}

// SymbolSource is a ConstraintSource (the constraint index) that has
// compiled its catalog into an interned symbol space — dense
// predicate/class/attribute IDs, compiled constraints and the implication
// adjacency. The transformation table runs entirely in that ID space,
// reusing catalog-lifetime work across queries; only predicates private to a
// query are compared at optimization time.
type SymbolSource interface {
	// Symbols returns the compiled symbol space of the source's catalog
	// generation (read-only).
	Symbols() *symtab.Table
}

// PrefilteredSource marks a ConstraintSource whose Retrieve already returns
// only constraints relevant to the query. The optimizer then skips its
// defensive re-filter during table initialization. CatalogSource and the
// constraint index both prefilter; the marker exists for custom sources that
// may not.
type PrefilteredSource interface {
	ConstraintSource
	// RetrievesOnlyRelevant is a marker; implementations promise that
	// every constraint Retrieve returns satisfies RelevantTo(q).
	RetrievesOnlyRelevant()
}

// CatalogSource adapts a raw constraint catalog into a ConstraintSource by
// scanning it per query — the ungrouped baseline the paper's grouping scheme
// improves on. NewOptimizer compiles its symbol space once.
type CatalogSource struct {
	Catalog *constraint.Catalog
}

// Retrieve returns the constraints relevant to q via a full catalog scan.
func (s CatalogSource) Retrieve(q *query.Query) []*constraint.Constraint {
	return s.Catalog.RelevantTo(q)
}

// RetrievesOnlyRelevant marks the scan as prefiltered.
func (s CatalogSource) RetrievesOnlyRelevant() {}

// CostModel is what the optimizer needs from the conventional cost-based
// optimizer during query formulation (the paper's profitable(p) function and
// the "profitability of removing a class ... estimated using the cost model
// in the conventional query optimizer").
type CostModel interface {
	// Profitable reports whether retaining the optional predicate p in
	// query q is estimated to reduce total execution cost.
	Profitable(q *query.Query, p predicate.Predicate) bool
	// ClassEliminationBeneficial reports whether dropping the dangling
	// class from q is estimated to reduce total execution cost.
	ClassEliminationBeneficial(q *query.Query, class string) bool
}

// QueryEstimator is an optional upgrade of CostModel: when the cost model can
// price whole queries, the formulation step selects the cheapest *subset* of
// optional predicates exactly (up to a size cap) instead of greedily keeping
// individually profitable ones. Optional predicates often pay off only in
// combination — a filter may be worthless until another filter redirects the
// plan — and per-predicate tests miss that. costmodel.Model implements it.
type QueryEstimator interface {
	EstimateQuery(q *query.Query) float64
}

// HeuristicCost is a schema-only CostModel used when no statistics are
// available: optional predicates are kept exactly when they sit on an
// indexed attribute or join two classes, and class elimination is always
// considered beneficial. It reproduces the paper's qualitative reasoning in
// Tables 3.1/3.2 without per-database statistics.
type HeuristicCost struct {
	Schema *schema.Schema
}

// Profitable implements CostModel.
func (h HeuristicCost) Profitable(_ *query.Query, p predicate.Predicate) bool {
	if p.IsJoin() {
		return true
	}
	a, ok := h.Schema.Attr(p.Left.Class, p.Left.Attr)
	return ok && a.Indexed
}

// ClassEliminationBeneficial implements CostModel.
func (h HeuristicCost) ClassEliminationBeneficial(*query.Query, string) bool { return true }

// RuleSet selects which of the paper's transformation rules are active.
type RuleSet uint8

const (
	// RuleElimination enables restriction elimination.
	RuleElimination RuleSet = 1 << iota
	// RuleIntroduction enables index and restriction introduction.
	RuleIntroduction
	// RuleClassElimination enables class elimination at formulation.
	RuleClassElimination

	// AllRules enables everything (the default).
	AllRules = RuleElimination | RuleIntroduction | RuleClassElimination
)

// Has reports whether the set contains the given rule.
func (r RuleSet) Has(rule RuleSet) bool { return r&rule != 0 }

// Options configures an Optimizer. The zero value means: all rules,
// implication-aware antecedent matching, FIFO queue, no budget, no
// contradiction detection, subsumption on.
type Options struct {
	// Rules selects active transformation rules; zero means AllRules.
	Rules RuleSet
	// DisableImpliedAntecedents turns off implication-aware antecedent
	// matching (DESIGN.md deviation #3), requiring antecedents to appear
	// verbatim, as in the paper's pseudocode.
	DisableImpliedAntecedents bool
	// UsePriorities turns the transformation queue into a priority queue
	// (Section 4 enhancement): index introductions first, then
	// eliminations, then plain introductions.
	UsePriorities bool
	// Budget caps the number of transformations performed (Section 4:
	// "assign a budget and limit the number of transformations").
	// Zero means unlimited.
	Budget int
	// DetectContradictions proves a query empty when two predicates
	// implied by it contradict (extension, off when reproducing the
	// paper's tables).
	DetectContradictions bool
	// DisableSubsumption turns off the formulation-time removal of
	// predicates implied by another retained predicate.
	DisableSubsumption bool
	// RecordDeps makes every Result carry the catalog ordinals of the
	// constraints it consulted (Result.Deps) — the dependency sets the
	// engine's surgical cache invalidation needs. Off by default: the set
	// is one extra escaping allocation per optimization, and only cached
	// results ever get invalidated.
	RecordDeps bool
	// Cost supplies profitability estimates; nil means HeuristicCost.
	Cost CostModel
}

func (o Options) rules() RuleSet {
	if o.Rules == 0 {
		return AllRules
	}
	return o.Rules
}

// Optimizer is the semantic query optimizer. Construction compiles (or
// adopts) the catalog's interned symbol space; afterwards the optimizer is
// safe for concurrent use as long as the ConstraintSource is (CatalogSource
// and *index.Index are). Per-query scratch state — the
// transformation table, its adjacency arena, chase and formulation buffers —
// is pooled and reused across Optimize calls, so steady-state optimization
// allocates only what escapes into each Result.
type Optimizer struct {
	schema      *schema.Schema
	source      ConstraintSource
	opts        Options
	prefiltered bool
	syms        *symtab.Table // compiled symbol space of the source's catalog
	tables      sync.Pool     // *table scratch, reused across Optimize calls
}

// NewOptimizer builds an optimizer over a schema and constraint source. A
// source that exposes a compiled symbol space (SymbolSource) supplies it; a
// CatalogSource gets one compiled here, once. Any other source must pass
// its symbol space to NewOptimizerSymbols: NewOptimizer panics on it.
func NewOptimizer(s *schema.Schema, src ConstraintSource, opts Options) *Optimizer {
	var syms *symtab.Table
	switch v := src.(type) {
	case SymbolSource:
		syms = v.Symbols()
	case CatalogSource:
		syms = symtab.Compile(s, v.Catalog.All())
	default:
		panic(fmt.Sprintf("core: NewOptimizer has no symbol space for a %T source; use NewOptimizerSymbols", src))
	}
	return NewOptimizerSymbols(s, src, syms, opts)
}

// NewOptimizerSymbols is NewOptimizer with an already-compiled symbol space
// for the source's catalog generation — the engine compiles one per catalog
// swap and shares it between retrieval index, optimizer and result-cache key
// hashing. Every constraint the source retrieves must resolve in syms, or
// Optimize returns an error; a nil syms panics.
func NewOptimizerSymbols(s *schema.Schema, src ConstraintSource, syms *symtab.Table, opts Options) *Optimizer {
	if syms == nil {
		panic("core: NewOptimizerSymbols needs a symbol space")
	}
	if opts.Cost == nil {
		opts.Cost = HeuristicCost{Schema: s}
	}
	_, prefiltered := src.(PrefilteredSource)
	o := &Optimizer{schema: s, source: src, opts: opts, prefiltered: prefiltered, syms: syms}
	o.tables.New = func() any { return &table{} }
	return o
}

// Schema returns the schema the optimizer was built with.
func (o *Optimizer) Schema() *schema.Schema { return o.schema }
