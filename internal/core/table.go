package core

import (
	"fmt"
	"slices"

	"sqo/internal/constraint"
	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/schema"
	"sqo/internal/symtab"
)

// table is the transformation table T plus the bookkeeping around it: the
// interned predicate columns, the relevant constraints defining the rows,
// per-predicate presence/tag state, and the transformation queue.
//
// The table is stored sparsely. The paper's m×n cell matrix is redundant:
// within one role, a cell's state is a pure function of per-column facts —
// an antecedent cell is Present exactly when its column is present for
// matching (matchPresent), and a consequent cell either stays
// AbsentConsequent for the whole run (the row's consequent was not in the
// query at initialization: introRow) or mirrors the column's current tag.
// Storing only those per-column vectors makes initialization O(Σ|cᵢ|)
// instead of O(m·n) and the column update after a firing O(out-degree)
// instead of O(n), which is what keeps per-query work proportional to the
// *relevant* constraints rather than the table area. cell() derives any
// matrix entry on demand for tests and display.
//
// Since the symbol-interning refactor the table is also a reusable scratch
// arena: every slice below keeps its capacity across Optimize calls (the
// optimizer pools tables via sync.Pool), reset() rewinds lengths without
// freeing, and all cross-query identity work happens in the catalog's
// interned symbol space (symtab.Table) — constraint predicates arrive as
// pre-resolved PredIDs, so initialization performs no string hashing and,
// after warmup, no heap allocation. Only data that escapes into the Result
// (trace, tags, the formulated query) is copied out fresh.
type table struct {
	q    *query.Query
	sch  *schema.Schema
	opts Options
	syms *symtab.Table // interned symbol space of the constraint source

	constraints []*constraint.Constraint
	consBuf     []*constraint.Constraint // backing for the defensive re-filter

	// --- columns (m) ---------------------------------------------------
	preds        []predicate.Predicate
	colCat       []int32 // per column: catalog PredID, or -1 (query-private)
	colSig       []int32 // per column: operand-signature ordinal
	present      []bool  // per column: predicate is in the query or introduced
	inQuery      []bool  // per column: predicate appeared in the original query
	matchPresent []bool  // per column: present, or implied by a present predicate
	tags         []Tag   // per column: current tag; meaningful when present

	// --- rows (n) ------------------------------------------------------
	consCol  []int32 // per row: column of the consequent
	antsOff  []int32 // per row: offset into antsFlat (n+1 entries)
	antsFlat []int32 // all rows' antecedent columns, flat
	introRow []bool  // per row: consequent absent at init (introduction role)
	fired    []bool  // per row: constraint already applied
	removed  []bool  // per row: constraint removed from C (spent)
	queued   []bool  // per row: constraint currently in the queue

	// catalog PredID -> column translation, generation-stamped so reuse
	// across queries needs no clearing: an entry is live only when its
	// mark equals the current generation.
	catCol  []int32
	catMark []uint32
	catGen  uint32

	// Implication adjacency, computed lazily per column into a shared
	// arena. Predicates can only imply one another within the same operand
	// signature (predicate.Implies reasons over identical operand pairs),
	// and for catalog predicates the adjacency was computed once at symbol
	// compile time and is merely translated to columns here; only
	// predicates private to this query are compared at optimization time.
	// implyOn gates antecedent *matching* only; the formulation-time chase
	// always reasons with full implication.
	implyOn   bool
	fwdSpan   [][2]int32 // per column: [start,end) into adj
	revSpan   [][2]int32
	fwdDone   []bool
	revDone   []bool
	adj       []int32 // arena backing every computed adjacency list
	queryOnly []int32 // columns with no catalog PredID

	// localSig interns the operand signatures of query-private predicates
	// that the symbol space does not know. Local ordinals are negative so
	// they can never collide with symtab ordinals.
	localSig map[sigKey]int32

	queue fireQueue

	// deps collects the catalog ordinals of the rows — every constraint
	// this optimization consulted — for the engine's surgical cache
	// invalidation (Options.RecordDeps).
	deps []int32

	ops   int64 // primitive operation counter (cost accounting)
	trace []Transformation

	chase chaseScratch
	form  formScratch
}

// reset rewinds the table for a new query, keeping every capacity.
func (t *table) reset(q *query.Query, sch *schema.Schema, opts Options, syms *symtab.Table) {
	t.q, t.sch, t.opts, t.syms = q, sch, opts, syms
	t.constraints = nil
	t.consBuf = t.consBuf[:0]
	t.preds = t.preds[:0]
	t.colCat = t.colCat[:0]
	t.colSig = t.colSig[:0]
	t.present = t.present[:0]
	t.inQuery = t.inQuery[:0]
	t.matchPresent = t.matchPresent[:0]
	t.tags = t.tags[:0]
	t.consCol = t.consCol[:0]
	t.antsOff = t.antsOff[:0]
	t.antsFlat = t.antsFlat[:0]
	t.introRow = t.introRow[:0]
	t.fired = t.fired[:0]
	t.removed = t.removed[:0]
	t.queued = t.queued[:0]
	t.fwdSpan = t.fwdSpan[:0]
	t.revSpan = t.revSpan[:0]
	t.fwdDone = t.fwdDone[:0]
	t.revDone = t.revDone[:0]
	t.adj = t.adj[:0]
	t.queryOnly = t.queryOnly[:0]
	t.queue.entries = t.queue.entries[:0]
	t.queue.seq = 0
	t.deps = t.deps[:0]
	t.ops = 0
	t.trace = t.trace[:0]

	if need := syms.NumPreds(); len(t.catCol) < need {
		t.catCol = make([]int32, need)
		t.catMark = make([]uint32, need)
		t.catGen = 0
	}
	t.catGen++
	if t.catGen == 0 { // generation counter wrapped; invalidate all marks
		clear(t.catMark)
		t.catGen = 1
	}
	if len(t.localSig) > 0 {
		clear(t.localSig)
	}
}

// m returns the number of columns.
func (t *table) m() int { return len(t.preds) }

// n returns the number of rows.
func (t *table) n() int { return len(t.constraints) }

// ants returns row i's antecedent columns.
func (t *table) ants(i int) []int32 {
	return t.antsFlat[t.antsOff[i]:t.antsOff[i+1]]
}

// Transformation records one applied (or formulation-time) action for the
// explain trace.
type Transformation struct {
	Kind       TransformKind
	Constraint string // constraint ID; empty for formulation actions
	Pred       predicate.Predicate
	Class      string // class name for class eliminations
	NewTag     Tag
}

// TransformKind labels trace entries.
type TransformKind uint8

const (
	// TransformElimination is a restriction elimination: a present
	// predicate's tag was lowered.
	TransformElimination TransformKind = iota
	// TransformIntroduction is an index/restriction introduction: an
	// absent consequent became present.
	TransformIntroduction
	// TransformDiscardOptional is the formulation step demoting a
	// non-profitable optional predicate to redundant.
	TransformDiscardOptional
	// TransformSubsumption is the formulation step dropping a predicate
	// implied by another retained predicate.
	TransformSubsumption
	// TransformClassElimination removed a dangling class.
	TransformClassElimination
	// TransformRestoreSupport promoted a predicate back to imperative
	// because the retained set could not derive an original predicate
	// without it (the soundness guard of chase.go).
	TransformRestoreSupport
)

// String names the transformation kind.
func (k TransformKind) String() string {
	switch k {
	case TransformElimination:
		return "restriction-elimination"
	case TransformIntroduction:
		return "restriction-introduction"
	case TransformDiscardOptional:
		return "discard-optional"
	case TransformSubsumption:
		return "subsumption"
	case TransformClassElimination:
		return "class-elimination"
	case TransformRestoreSupport:
		return "restore-support"
	default:
		return "transform(?)"
	}
}

// fireQueue is the transformation queue Q: FIFO by default, priority-ordered
// under Options.UsePriorities. Entries are row indices. The heap is hand
// rolled over the reusable entries slice — container/heap's interface would
// box every entry onto the heap, which the zero-allocation hot path cannot
// afford.
type fireQueue struct {
	entries    []queueEntry
	priorities bool
	seq        int
}

type queueEntry struct {
	row      int
	priority int // lower fires first
	seq      int // FIFO tiebreak
}

func (fq *fireQueue) Len() int { return len(fq.entries) }

func (fq *fireQueue) less(a, b queueEntry) bool {
	if fq.priorities && a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

func (fq *fireQueue) push(row, priority int) {
	fq.seq++
	fq.entries = append(fq.entries, queueEntry{row: row, priority: priority, seq: fq.seq})
	// Sift up.
	e := fq.entries
	i := len(e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !fq.less(e[i], e[parent]) {
			break
		}
		e[i], e[parent] = e[parent], e[i]
		i = parent
	}
}

func (fq *fireQueue) pop() int {
	e := fq.entries
	top := e[0].row
	last := len(e) - 1
	e[0] = e[last]
	fq.entries = e[:last]
	// Sift down.
	e = fq.entries
	i := 0
	for {
		left := 2*i + 1
		if left >= last {
			break
		}
		least := left
		if right := left + 1; right < last && fq.less(e[right], e[left]) {
			least = right
		}
		if !fq.less(e[least], e[i]) {
			break
		}
		e[i], e[least] = e[least], e[i]
		i = least
	}
	return top
}

// init is the Initialization step proper; the table must be freshly reset.
// Sources that do not promise prefiltering (PrefilteredSource) get a
// defensive relevance re-check — firing an irrelevant constraint would be
// unsound. A relevant constraint the symbol space cannot resolve is an
// error: the table has no row form for it.
func (t *table) init(relevant []*constraint.Constraint, prefiltered bool) error {
	if prefiltered {
		t.constraints = relevant
	} else {
		for _, c := range relevant {
			if c.RelevantTo(t.q) {
				t.consBuf = append(t.consBuf, c)
			}
		}
		t.constraints = t.consBuf
	}
	t.implyOn = !t.opts.DisableImpliedAntecedents

	// P: predicates of the query and of the relevant constraints, interned
	// into columns. Query predicates first — "we begin by making all the
	// predicates in the query imperative" — then each constraint's
	// antecedents and consequent in order: columns are numbered by first
	// occurrence.
	for _, p := range t.q.Joins {
		t.internQueryPred(p)
	}
	for _, p := range t.q.Selects {
		t.internQueryPred(p)
	}

	n := len(t.constraints)
	t.antsOff = append(t.antsOff, 0)
	for _, c := range t.constraints {
		t.ops += int64(1 + len(c.Antecedents))
		ord, ok := t.syms.Ordinal(c)
		if !ok {
			return fmt.Errorf("core: constraint %q is not in the optimizer's symbol space", c.ID)
		}
		// Predicates arrive as PredIDs: no hashing, no key comparisons.
		// The catalog ordinal joins the result's dependency set.
		t.deps = append(t.deps, int32(ord))
		comp := t.syms.CompiledAt(ord)
		for _, aid := range comp.Ants {
			t.antsFlat = append(t.antsFlat, t.colOfCat(aid))
		}
		cons := t.colOfCat(comp.Cons)
		// Consequent classification takes precedence over antecedent (a
		// predicate that is both would make the constraint trivial; the
		// closure never produces those, but be deterministic anyway):
		// drop the consequent from the row's antecedents.
		row := len(t.consCol)
		flat := t.antsFlat[t.antsOff[row]:]
		kept := flat[:0]
		for _, ac := range flat {
			if ac != cons {
				kept = append(kept, ac)
			}
		}
		t.antsFlat = t.antsFlat[:t.antsOff[row]+int32(len(kept))]
		t.antsOff = append(t.antsOff, int32(len(t.antsFlat)))
		t.consCol = append(t.consCol, cons)
		t.introRow = append(t.introRow, !t.present[cons])
	}
	t.fired = grow(t.fired, n)
	t.removed = grow(t.removed, n)
	t.queued = grow(t.queued, n)

	// A column is present for antecedent matching when its predicate is
	// literally present or implied by a present predicate.
	for id := range t.present {
		if !t.present[id] {
			continue
		}
		t.matchPresent[id] = true
		if t.implyOn {
			for _, j := range t.fwdOf(int32(id)) {
				t.matchPresent[j] = true
			}
		}
	}
	t.queue.priorities = t.opts.UsePriorities
	return nil
}

// grow returns a zeroed slice of length n, reusing s's capacity.
func grow(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// addCol appends a new column for p. catID is the catalog PredID or -1.
func (t *table) addCol(p predicate.Predicate, catID int32) int32 {
	col := int32(len(t.preds))
	t.preds = append(t.preds, p)
	t.colCat = append(t.colCat, catID)
	t.colSig = append(t.colSig, t.sigOrdinal(p, catID))
	t.present = append(t.present, false)
	t.inQuery = append(t.inQuery, false)
	t.matchPresent = append(t.matchPresent, false)
	t.tags = append(t.tags, TagImperative)
	t.fwdSpan = append(t.fwdSpan, [2]int32{})
	t.revSpan = append(t.revSpan, [2]int32{})
	t.fwdDone = append(t.fwdDone, false)
	t.revDone = append(t.revDone, false)
	if catID >= 0 {
		t.catCol[catID] = col
		t.catMark[catID] = t.catGen
	} else {
		t.queryOnly = append(t.queryOnly, col)
	}
	return col
}

// colOfCat returns the column of a catalog predicate, adding it on first
// sight. The generation-stamped translation array makes the lookup one
// indexed load — no map, no hashing.
func (t *table) colOfCat(id symtab.PredID) int32 {
	if t.catMark[id] == t.catGen {
		return t.catCol[id]
	}
	return t.addCol(t.syms.Pred(id), int32(id))
}

// internQueryPred interns one predicate of the query itself and marks it
// present and imperative. A predicate resolvable through the symbol space
// but minted after this generation (a patch lineage shares its maps, so an
// old generation can see IDs a later one interned) is treated as
// query-private — exactly what a from-scratch build of this generation
// would do.
func (t *table) internQueryPred(p predicate.Predicate) {
	var col int32
	if id, ok := t.syms.PredID(p); ok && int(id) < t.syms.NumPreds() {
		if t.catMark[id] == t.catGen {
			col = t.catCol[id]
		} else {
			col = t.addCol(p, int32(id))
		}
	} else {
		col = t.internPrivate(p)
	}
	t.present[col] = true
	t.inQuery[col] = true
	t.tags[col] = TagImperative
}

// internPrivate interns a query-private predicate (unknown to the catalog's
// symbol space) by linear key scan over the other private columns — queries
// hold a handful of predicates, so no map is warranted.
func (t *table) internPrivate(p predicate.Predicate) int32 {
	key := p.Key()
	for _, col := range t.queryOnly {
		if t.preds[col].Key() == key {
			return col
		}
	}
	return t.addCol(p, -1)
}

// sigOrdinal resolves the operand-signature ordinal of a new column:
// precomputed for catalog predicates, resolved through the symbol space for
// a query-private predicate on a known signature, locally interned
// (negative ordinals) otherwise.
func (t *table) sigOrdinal(p predicate.Predicate, catID int32) int32 {
	if catID >= 0 {
		return t.syms.SigOrdinal(symtab.PredID(catID))
	}
	if sig, ok := t.syms.SigOrdinalOf(p); ok {
		return sig
	}
	k := sigKey{left: p.Left, join: p.IsJoin()}
	if k.join {
		k.right = p.RightAttr
	}
	if sig, ok := t.localSig[k]; ok {
		return sig
	}
	if t.localSig == nil {
		t.localSig = make(map[sigKey]int32)
	}
	sig := int32(-1 - len(t.localSig))
	t.localSig[k] = sig
	return sig
}

// cell derives one entry of the paper's transformation table from the sparse
// state: the row structure fixes the role, the per-column vectors fix the
// value. Tests and the explain renderer use it; the hot path never
// materializes the matrix.
func (t *table) cell(row, col int) Cell {
	if int32(col) == t.consCol[row] {
		if t.introRow[row] {
			// An absent consequent keeps its init-time classification
			// for the whole run, even after another constraint
			// introduces the predicate; fire() compensates, exactly as
			// the paper's "some cₖ ahead of cᵢ has already …" case.
			return CellAbsentConsequent
		}
		return cellForTag(t.tags[col])
	}
	for _, ac := range t.ants(row) {
		if ac == int32(col) {
			if t.matchPresent[col] {
				return CellPresentAntecedent
			}
			return CellAbsentAntecedent
		}
	}
	return CellNone
}

// lookupCol finds the column of a predicate, for tests.
func (t *table) lookupCol(p predicate.Predicate) (int, bool) {
	key := p.Key()
	for col := range t.preds {
		if t.preds[col].Key() == key {
			return col, true
		}
	}
	return 0, false
}

// sigKey is the comparable form of a predicate's operand signature (the
// string rendering is index.Signature; the hot path resolves ordinals from
// the symbol space instead).
type sigKey struct {
	left, right predicate.AttrRef
	join        bool
}

// fwdOf returns the columns predicate col implies (ascending, excluding
// col), computed on first use (DESIGN.md deviation #3): translated from the
// symbol space's catalog-level adjacency for a catalog predicate, derived by
// signature-peer comparison for a query-private one.
func (t *table) fwdOf(col int32) []int32 {
	if !t.fwdDone[col] {
		t.fwdDone[col] = true
		t.fwdSpan[col] = t.adjacency(col, true)
	}
	s := t.fwdSpan[col]
	return t.adj[s[0]:s[1]]
}

// revOf returns the columns whose predicates imply col (ascending, excluding
// col). The formulation-time chase uses it; unlike antecedent matching it is
// not gated by DisableImpliedAntecedents, because the chase's derivability
// test always reasons with Implies.
func (t *table) revOf(col int32) []int32 {
	if !t.revDone[col] {
		t.revDone[col] = true
		t.revSpan[col] = t.adjacency(col, false)
	}
	s := t.revSpan[col]
	return t.adj[s[0]:s[1]]
}

// adjacency computes one column's implication neighbors, ascending, into the
// shared arena and returns the span. forward selects "col implies j";
// otherwise "j implies col".
func (t *table) adjacency(col int32, forward bool) [2]int32 {
	start := int32(len(t.adj))
	p := t.preds[col]
	if t.colCat[col] >= 0 {
		// Catalog predicate: its implications among catalog predicates
		// were precomputed at symbol compile time; translate PredIDs to
		// the columns present in this table.
		cached := t.syms.Implies(symtab.PredID(t.colCat[col]))
		if !forward {
			cached = t.syms.ImpliedBy(symtab.PredID(t.colCat[col]))
		}
		for _, cid := range cached {
			t.ops++
			if t.catMark[cid] == t.catGen {
				t.adj = append(t.adj, t.catCol[cid])
			}
		}
		// Plus the query-private predicates, which the catalog-level
		// precompute cannot know.
		for _, j := range t.queryOnly {
			if j == col || t.colSig[j] != t.colSig[col] {
				continue
			}
			t.ops++
			if implies(p, t.preds[j], forward) {
				t.adj = append(t.adj, j)
			}
		}
		// First-occurrence order in the catalog pool need not agree
		// with this table's column order (a predicate may debut in a
		// constraint irrelevant to this query), so restore column
		// order explicitly.
		slices.Sort(t.adj[start:])
		return [2]int32{start, int32(len(t.adj))}
	}
	// A query-private predicate: compare against every signature peer, in
	// column order.
	for j := int32(0); j < int32(len(t.preds)); j++ {
		if j == col || t.colSig[j] != t.colSig[col] {
			continue
		}
		t.ops++
		if implies(p, t.preds[j], forward) {
			t.adj = append(t.adj, j)
		}
	}
	return [2]int32{start, int32(len(t.adj))}
}

// implies orients one implication test: forward is "a implies b".
func implies(a, b predicate.Predicate, forward bool) bool {
	if forward {
		return a.Implies(b)
	}
	return b.Implies(a)
}

// tagOf converts a consequent cell back to a Tag; callers guarantee the cell
// is one of the three tag cells.
func tagOf(c Cell) Tag {
	switch c {
	case CellRedundant:
		return TagRedundant
	case CellOptional:
		return TagOptional
	default:
		return TagImperative
	}
}

// producedTag is Tables 3.1 and 3.2 in one function: the tag a constraint
// assigns its consequent, keyed on the constraint's intra/inter class and
// whether the consequent predicate is indexed.
func (t *table) producedTag(row int) Tag {
	c := t.constraints[row]
	if c.Kind() == constraint.Inter {
		// The consequent might be evaluated before the antecedents and
		// cut intermediate results: optional.
		return TagOptional
	}
	// Intra-class: the antecedents already determine the instances
	// returned from the class, so the consequent only helps if it can use
	// an index.
	if t.consequentIndexed(row) {
		return TagOptional
	}
	return TagRedundant
}

// consequentIndexed reports whether the consequent predicate of the row is a
// selective predicate on an indexed attribute (an "indexed predicate" in the
// paper's terms). Join consequents have no index to exploit here.
func (t *table) consequentIndexed(row int) bool {
	p := t.constraints[row].Consequent
	if p.IsJoin() {
		return false
	}
	a, ok := t.sch.Attr(p.Left.Class, p.Left.Attr)
	return ok && a.Indexed
}
