package core

import (
	"context"
	"sync"
	"time"

	"sqo/internal/constraint"
	"sqo/internal/obs"
	"sqo/internal/predicate"
	"sqo/internal/query"
)

// Stats summarizes one optimization run.
type Stats struct {
	// RelevantConstraints is n: constraints relevant to the query.
	RelevantConstraints int
	// Predicates is m: distinct predicates across query and constraints.
	Predicates int
	// Fires counts transformations actually applied.
	Fires int
	// Ops counts primitive table operations (cell writes, scans,
	// implication checks). The experiment harness converts this into a
	// deterministic "transformation cost" comparable with execution cost.
	Ops int64
	// TransformDuration is the wall-clock time of initialization plus the
	// transformation loop — what Figure 4.1 reports. The paper excludes
	// the formulation step's cost-benefit analyses from its measurements
	// ("the cost-benefit analyses in the query formulation step are not
	// considered"), and so does this field.
	TransformDuration time.Duration
	// Duration is the wall-clock time of the whole optimization,
	// including retrieval and formulation.
	Duration time.Duration
}

// Result is the outcome of optimizing one query. Results are immutable and
// safe to share across goroutines (the engine's cache returns one instance
// to every hit).
type Result struct {
	// Original is the input query (never mutated).
	Original *query.Query
	// Optimized is the formulated output query.
	Optimized *query.Query
	// EmptyResult is true when contradiction detection proved that the
	// query returns no instances in any database state satisfying the
	// constraints. Optimized is still populated.
	EmptyResult bool
	// Trace lists the transformations in application order.
	Trace []Transformation
	// Stats carries counters and timing.
	Stats Stats

	tagged []TaggedPredicate

	// deps holds the catalog ordinals of every constraint this
	// optimization consulted (the relevant set); nil unless the optimizer
	// ran with Options.RecordDeps. See Deps.
	deps []int32

	ftOnce sync.Once
	ft     map[string]Tag
}

// Deps returns the catalog ordinals of the constraints this result depends
// on — every constraint the transformation table consulted, fired or not —
// ascending, in the ordinal space of the catalog generation that produced
// the result. The engine's incremental catalog updates use it to invalidate
// only the cached results whose dependency set intersects a delta. The set is
// recorded only under Options.RecordDeps (the engine sets it whenever it
// caches); without it Deps returns nil. The slice is owned by the result;
// treat as read-only.
func (r *Result) Deps() []int32 { return r.deps }

// TaggedPredicate pairs a predicate with its final tag, for display.
type TaggedPredicate struct {
	Pred predicate.Predicate
	Tag  Tag
}

// TaggedPredicates returns the final classification of every predicate that
// was present at the end of the transformation (original or introduced), in
// deterministic (column) order — the human-readable companion of FinalTags.
func (r *Result) TaggedPredicates() []TaggedPredicate {
	return append([]TaggedPredicate(nil), r.tagged...)
}

// TaggedCount returns the length of the final tag list.
func (r *Result) TaggedCount() int { return len(r.tagged) }

// TaggedAt returns the i'th entry of the final tag list (0 <= i <
// TaggedCount()) without copying the backing array — the engine's
// containment derivation walks the cached generalization's tags through this
// instead of materializing a TaggedPredicates copy per derived result.
func (r *Result) TaggedAt(i int) TaggedPredicate { return r.tagged[i] }

// FinalTags maps every predicate that was present at the end of the
// transformation (original or introduced) to its final tag, keyed by
// predicate.Key(). The map is materialized on first call — the optimize hot
// path carries tags in interned-ID space and never builds it — and cached;
// treat it as read-only.
func (r *Result) FinalTags() map[string]Tag {
	r.ftOnce.Do(func() {
		ft := make(map[string]Tag, len(r.tagged))
		for _, tp := range r.tagged {
			ft[tp.Pred.Key()] = tp.Tag
		}
		r.ft = ft
	})
	return r.ft
}

// ComposeResult assembles a Result from parts computed outside the
// transformation loop. The engine's containment-aware cache uses it to
// derive the result of a contained query (cached generalization plus
// residual conjuncts) without re-running the table; everything it passes in
// must already be in final form — tagged in column order, deps ascending.
// The slices are adopted, not copied.
func ComposeResult(original, optimized *query.Query, empty bool, trace []Transformation, stats Stats, tagged []TaggedPredicate, deps []int32) *Result {
	return &Result{
		Original:    original,
		Optimized:   optimized,
		EmptyResult: empty,
		Trace:       trace,
		Stats:       stats,
		tagged:      tagged,
		deps:        deps,
	}
}

// Optimize runs the full algorithm of Section 3 on q and returns the
// transformed query. The input query is not modified. An invalid query
// (per query.Validate) yields an error.
func (o *Optimizer) Optimize(q *query.Query) (*Result, error) {
	return o.OptimizeContext(context.Background(), q)
}

// OptimizeContext is Optimize with cancellation: the context is checked on
// every pass of the transformation loop (each queue update and each firing),
// so a cancelled or expired context abandons the optimization promptly and
// returns ctx.Err(). Retrieval and formulation run to completion once
// started; the transformation loop between them dominates the runtime
// (O(m·n) table work) and is where cancellation cuts in.
func (o *Optimizer) OptimizeContext(ctx context.Context, q *query.Query) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(o.schema); err != nil {
		return nil, err
	}

	relevant := o.source.Retrieve(q)
	transformStart := time.Now()
	// Pipeline tracing rides the timestamps this function takes anyway:
	// a sampled request's retrieval/transformation/formulation spans cost
	// zero extra clock reads, and a nil trace costs one context lookup.
	tr := obs.FromContext(ctx)
	tr.AddSpan(obs.StageRetrieve, start, transformStart.Sub(start))

	// The table doubles as the per-query scratch arena: taken from the
	// optimizer's pool, reused wholesale (columns, rows, adjacency arena,
	// chase and formulation buffers), and returned on every exit path.
	// Steady-state optimization therefore allocates only what escapes
	// into the Result.
	t := o.tables.Get().(*table)
	defer o.tables.Put(t)
	t.reset(q, o.schema, o.opts, o.syms)
	if err := t.init(relevant, o.prefiltered); err != nil {
		return nil, err
	}

	// Main loop (Figure 3.1): update the queue, drain it, repeat until an
	// update leaves the queue empty.
	budget := o.opts.Budget
	fires := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t.updateQueue()
		if t.queue.Len() == 0 {
			break
		}
		for t.queue.Len() > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if budget > 0 && fires >= budget {
				// Budget exhausted: stop transforming; whatever
				// tags exist now feed formulation.
				t.drainQueue()
				break
			}
			row := t.queue.pop()
			t.queued[row] = false
			if t.fire(row) {
				fires++
			}
		}
		if budget > 0 && fires >= budget {
			break
		}
	}

	transformDur := time.Since(transformStart)
	tr.AddSpan(obs.StageTransform, transformStart, transformDur)

	formulateStart := transformStart.Add(transformDur)
	res := o.formulate(t)
	res.Original = q
	duration := time.Since(start)
	tr.AddSpan(obs.StageFormulate, formulateStart, start.Add(duration).Sub(formulateStart))
	res.Stats = Stats{
		RelevantConstraints: t.n(),
		Predicates:          t.m(),
		Fires:               fires,
		Ops:                 t.ops,
		TransformDuration:   transformDur,
		Duration:            duration,
	}
	return res, nil
}

// consCell returns the current classification of row i's consequent: frozen
// at AbsentConsequent for rows whose consequent was not in the query at
// initialization, the column's live tag otherwise.
func (t *table) consCell(i int) Cell {
	if t.introRow[i] {
		return CellAbsentConsequent
	}
	return cellForTag(t.tags[t.consCol[i]])
}

// updateQueue implements the paper's "Update Transformation Queue"
// (Section 3.2): enqueue every constraint that can fire, and drop from C the
// constraints that can never fire again.
func (t *table) updateQueue() {
	for i := range t.constraints {
		t.ops++
		if t.fired[i] || t.removed[i] || t.queued[i] {
			continue
		}
		switch t.consCell(i) {
		case CellRedundant:
			// Cannot be lowered further.
			t.removed[i] = true
		case CellOptional:
			// Only an intra-class constraint with a non-indexed
			// consequent can lower optional to redundant
			// (Table 3.1); inter-class constraints are spent.
			if t.producedTag(i) == TagRedundant {
				t.maybeEnqueue(i)
			} else {
				t.removed[i] = true
			}
		case CellImperative:
			if t.opts.rules().Has(RuleElimination) {
				t.maybeEnqueue(i)
			}
		case CellAbsentConsequent:
			if t.opts.rules().Has(RuleIntroduction) {
				t.maybeEnqueue(i)
			}
		}
	}
}

// maybeEnqueue inserts row i into the queue when all its antecedent
// predicates are present.
func (t *table) maybeEnqueue(i int) {
	for _, col := range t.ants(i) {
		t.ops++
		if !t.matchPresent[col] {
			return
		}
	}
	t.queued[i] = true
	t.queue.push(i, t.priority(i))
}

// priority orders queue entries under Options.UsePriorities, implementing
// the Section 4 preference: "index introduction is likely to be more
// profitable than predicate elimination, and predicate elimination is
// preferred over predicate introduction".
func (t *table) priority(i int) int {
	introducing := t.introRow[i]
	switch {
	case introducing && t.consequentIndexed(i):
		return 0 // index introduction
	case !introducing:
		return 1 // restriction elimination
	default:
		return 2 // plain restriction introduction
	}
}

// drainQueue empties the queue without firing (budget exhaustion).
func (t *table) drainQueue() {
	for t.queue.Len() > 0 {
		row := t.queue.pop()
		t.queued[row] = false
	}
}

// fire implements one step of the paper's Transformation algorithm
// (Section 3.3): apply constraint row's transformation by lowering (or
// assigning) its consequent's tag, then update the consequent's column across
// all rows. Returns whether a transformation actually happened (a constraint
// whose work was already done by an earlier firing is a no-op, mirroring the
// paper's "some cₖ ahead of cᵢ in Q has already lowered t(cᵢ,pⱼ) — ignore").
func (t *table) fire(row int) bool {
	t.fired[row] = true
	t.removed[row] = true
	cons := t.consCol[row]
	cell := t.consCell(row)
	newTag := t.producedTag(row)

	var kind TransformKind
	switch cell {
	case CellImperative, CellOptional:
		// Restriction elimination: only ever lower the tag
		// (monotonicity; DESIGN.md deviation #1).
		if newTag >= tagOf(cell) {
			return false
		}
		kind = TransformElimination
	case CellAbsentConsequent:
		// Index/restriction introduction (Table 3.2). A predicate
		// another constraint already introduced at the same or a lower
		// tag needs no second introduction.
		if t.present[cons] && t.tags[cons] <= newTag {
			return false
		}
		kind = TransformIntroduction
	default:
		return false
	}

	t.applyTag(cons, newTag)
	t.trace = append(t.trace, Transformation{
		Kind:       kind,
		Constraint: t.constraints[row].ID,
		Pred:       t.preds[cons],
		NewTag:     newTag,
	})
	return true
}

// applyTag makes the predicate in column cons present with (at most) the
// given tag. In the dense formulation this is the paper's column update
// across all rows; sparsely, flipping the column's matchPresent bit (and,
// under implication matching, the bits of everything the predicate implies)
// updates every antecedent cell at once, and consequent cells follow the tag
// vector by construction. O(1 + out-degree) instead of O(n).
func (t *table) applyTag(cons int32, newTag Tag) {
	if t.present[cons] {
		if newTag < t.tags[cons] {
			t.tags[cons] = newTag
		}
	} else {
		t.present[cons] = true
		t.tags[cons] = newTag
	}
	t.ops++
	// The predicate is now implied by the query, so constraints using it
	// as an antecedent may fire; presence ripples to implied predicates'
	// antecedent cells.
	t.matchPresent[cons] = true
	if t.implyOn {
		for _, j := range t.fwdOf(cons) {
			t.ops++
			t.matchPresent[j] = true
		}
	}
}

// relevantConstraints exposes the rows for tests.
func (t *table) relevantConstraints() []*constraint.Constraint { return t.constraints }

// predicateTag returns the current presence and tag of a predicate.
func (t *table) predicateTag(p predicate.Predicate) (Tag, bool) {
	id, ok := t.lookupCol(p)
	if !ok || !t.present[id] {
		return 0, false
	}
	return t.tags[id], true
}
