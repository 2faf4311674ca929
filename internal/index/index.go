// Package index implements an immutable inverted index over a semantic
// constraint catalog, making applicable-constraint retrieval sublinear in the
// catalog size.
//
// The paper's transformation algorithm is bounded per query — O(m·n) for m
// predicates and n *relevant* constraints — but finding those n constraints
// by scanning the whole catalog costs O(|catalog|) per query, which dominates
// once catalogs outgrow the paper's 17 rules. The index removes that scan
// with two keyed structures, both built once per compiled catalog
// generation (at NewEngine, or by a catalog mutation that rebuilds; Patch
// derives a delta's generation) and shared read-only by every query:
//
//   - Class posting lists. Every constraint is attached to the *rarest*
//     object class it references (the class referenced by the fewest
//     constraints in this catalog). A relevant constraint references only
//     query classes, so its home class is a query class and its posting list
//     is fetched — the same completeness argument as the paper's grouping
//     scheme, with the assignment chosen to minimize the candidates touched.
//
//   - Attribute posting lists, keyed by (class, attribute, predicate kind)
//     — the operand signature. Probing with a predicate returns the
//     constraints whose antecedent on that signature could be implied by it,
//     filtered by the overlap of the two predicates' satisfiable intervals;
//     the closure materializer chains constraints through these postings
//     instead of pairing the whole catalog.
//
// An Index is immutable after New and safe for unbounded concurrent use.
// Relevant returns exactly what a linear scan (constraint.Catalog.RelevantTo)
// returns, in the same order; the differential tests and the index ablation
// compare the two.
package index

import (
	"slices"

	"sqo/internal/chunked"
	"sqo/internal/constraint"
	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/symtab"
)

// Index is the inverted constraint index. Build with New; immutable and
// shareable afterwards. Patch derives the next catalog generation's index
// from this one by structural sharing (see patch.go): ordinals are stable
// and append-only across a patch lineage, with removed constraints leaving
// tombstoned ordinals no posting list references.
type Index struct {
	all constraint.Ordinals // ordinal space; tombstones stay in place

	// syms is the compiled symbol space of the catalog generation: interned
	// classes, attributes and predicates, compiled constraints and the
	// implication adjacency. The index shares it with the transformation
	// table (core.SymbolSource) so the whole generation owns exactly one.
	syms *symtab.Table

	// live is the number of posted (non-tombstoned) constraints.
	live int

	// byClass maps a home ClassID to the ordinals of the constraints
	// attached to it, ascending. Each constraint has exactly one home, so a
	// lookup never sees a candidate twice. parked holds degenerate
	// constraints without classes, which Relevant always checks.
	byClass chunked.Vec[[]int32]
	parked  []int32

	// classIDs/links per ordinal: the requirement sets verified at lookup.
	// Interned class IDs make the relevance check integer comparisons.
	classIDs [][]symtab.ClassID
	links    [][]string

	// attrRows holds the antecedent occurrences keyed by operand-signature
	// ordinal (symtab.SigOrdinal), ordered by (constraint ordinal,
	// antecedent position). attrNonEmpty counts the non-empty rows — the
	// AttrKeys stat. Both spines are chunked, so a patch copies only the
	// chunks holding the rows it writes.
	attrRows     chunked.Vec[[]attrPosting]
	attrNonEmpty int

	maxPosting int
}

// attrPosting is one antecedent occurrence in the attribute postings. Its
// interval is derived from the antecedent when a probe needs it, which
// keeps the postings small and their construction free of predicate work.
type attrPosting struct {
	ord int32 // constraint ordinal
	pos int32 // antecedent position within the constraint
}

// Match is one probe hit: a constraint and the antecedent position that
// matched.
type Match struct {
	Constraint *constraint.Constraint
	Ordinal    int
	AntPos     int
}

// AttrPostings is the attribute-keyed layer of the index alone: antecedent
// occurrences posted under their (class, attribute, predicate kind) operand
// signature. The closure materializer builds one
// per fixpoint round — it needs only this layer, not the class postings or
// the implication adjacency a full Index carries.
type AttrPostings struct {
	all    []*constraint.Constraint
	byAttr map[string][]attrPosting
}

// BuildAttrPostings constructs the attribute postings over a constraint
// slice in the given (catalog) order. O(Σ antecedents).
func BuildAttrPostings(all []*constraint.Constraint) *AttrPostings {
	ap := &AttrPostings{all: all, byAttr: make(map[string][]attrPosting)}
	for i, c := range all {
		for k, a := range c.Antecedents {
			key := Signature(a)
			ap.byAttr[key] = append(ap.byAttr[key], attrPosting{ord: int32(i), pos: int32(k)})
		}
	}
	return ap
}

// AntecedentMatches returns the constraints having an antecedent on p's
// operand signature whose satisfiable interval overlaps p's — a conservative
// superset of the constraints with an antecedent implied by p, ordered by
// (catalog ordinal, antecedent position).
func (ap *AttrPostings) AntecedentMatches(p predicate.Predicate) []Match {
	post := ap.byAttr[Signature(p)]
	if len(post) == 0 {
		return nil
	}
	return matches(p, post, func(ord int32) *constraint.Constraint { return ap.all[ord] })
}

// matches filters a posting row to the antecedents whose satisfiable
// interval overlaps p's (joins have no constant bounds and all pass).
func matches(p predicate.Predicate, post []attrPosting, at func(ord int32) *constraint.Constraint) []Match {
	iv := IntervalOfPredicate(p)
	var out []Match
	for _, posting := range post {
		c := at(posting.ord)
		if !p.IsJoin() && !iv.Overlaps(IntervalOfPredicate(c.Antecedents[posting.pos])) {
			continue
		}
		out = append(out, Match{Constraint: c, Ordinal: int(posting.ord), AntPos: int(posting.pos)})
	}
	return out
}

// Signature returns the operand signature of a predicate: the (class,
// attribute, predicate kind) key of the attribute postings. Two predicates
// can stand in an implication relation only when their signatures are equal
// (predicate.Implies reasons over identical operand pairs only).
func Signature(p predicate.Predicate) string {
	if p.IsJoin() {
		return "j|" + p.Left.String() + "|" + p.RightAttr.String()
	}
	return "s|" + p.Left.String()
}

// New builds the index over a catalog, compiling a fresh symbol space for
// it. The catalog's constraints are shared, not copied; they are immutable
// by contract.
func New(cat *constraint.Catalog) *Index {
	return Build(cat.All())
}

// Build constructs the index over an explicit constraint slice in the given
// order, compiling a fresh symbol space. The slice is treated as the
// catalog order.
func Build(all []*constraint.Constraint) *Index {
	return BuildWith(all, symtab.Compile(nil, all))
}

// BuildWith constructs the index over a constraint slice and an
// already-compiled symbol space for the same generation (the engine compiles
// one per catalog swap and shares it between index and optimizer). syms must
// cover exactly the constraints of all.
func BuildWith(all []*constraint.Constraint, syms *symtab.Table) *Index {
	ix := &Index{
		all:      constraint.OrdinalsOf(all),
		syms:     syms,
		live:     len(all),
		classIDs: make([][]symtab.ClassID, len(all)),
		links:    make([][]string, len(all)),
	}
	attrRows := make([][]attrPosting, syms.NumSigs())
	for i := range all {
		comp := syms.CompiledAt(i)
		for k, aid := range comp.Ants {
			sig := syms.SigOrdinal(aid)
			if len(attrRows[sig]) == 0 {
				ix.attrNonEmpty++
			}
			attrRows[sig] = append(attrRows[sig], attrPosting{ord: int32(i), pos: int32(k)})
		}
	}

	// Pass 1: class reference frequencies, in interned ID space.
	freq := make([]int, syms.NumClasses())
	for i, c := range all {
		cls := c.Classes()
		ids := make([]symtab.ClassID, len(cls))
		for k, cl := range cls {
			id, ok := syms.ClassID(cl)
			if !ok {
				// Compile interns every constraint class; a miss means
				// syms belongs to another generation.
				panic("index: symbol space does not cover constraint " + c.ID)
			}
			ids[k] = id
			freq[id]++
		}
		ix.classIDs[i] = ids
		ix.links[i] = c.Links
	}

	// Pass 2: attach each constraint to its rarest referenced class (ties
	// break lexicographically — Classes() is sorted — for determinism).
	byClass := make([][]int32, syms.NumClasses())
	for i := range all {
		ids := ix.classIDs[i]
		if len(ids) == 0 {
			// Degenerate constraint without classes; park it where
			// Relevant always checks.
			ix.parked = append(ix.parked, int32(i))
			continue
		}
		home := ids[0]
		for _, id := range ids[1:] {
			if freq[id] < freq[home] {
				home = id
			}
		}
		byClass[home] = append(byClass[home], int32(i))
	}
	ix.byClass, ix.attrRows = chunked.From(byClass), chunked.From(attrRows)
	ix.maxPosting = ix.computeMaxPosting()
	return ix
}

// computeMaxPosting scans the posting-list lengths; O(classes).
func (ix *Index) computeMaxPosting() int {
	m := len(ix.parked)
	for id := 0; id < ix.byClass.Len(); id++ {
		m = max(m, len(ix.byClass.At(id)))
	}
	return m
}

// homes returns each ordinal's home ClassID, -1 for a parked or
// tombstoned ordinal: the inverse of the class postings. O(ordinals).
func (ix *Index) homes() []int32 {
	homeOf := make([]int32, ix.all.Len())
	for ord := range homeOf {
		homeOf[ord] = -1
	}
	for id := 0; id < ix.byClass.Len(); id++ {
		for _, ord := range ix.byClass.At(id) {
			homeOf[ord] = int32(id)
		}
	}
	return homeOf
}

// Symbols returns the compiled symbol space of the indexed generation.
// Implements core.SymbolSource; treat as read-only.
func (ix *Index) Symbols() *symtab.Table { return ix.syms }

// Len returns the number of indexed (live) constraints.
func (ix *Index) Len() int { return ix.live }

// Relevant returns the constraints relevant to q — the same set, in the same
// (catalog) order, as a full scan with Constraint.RelevantTo — touching only
// the posting lists of the query's classes. The query's class names resolve
// to interned ClassIDs once, after which every relevance check is integer
// comparisons against the precomputed requirement sets.
func (ix *Index) Relevant(q *query.Query) []*constraint.Constraint {
	// Queries hold a handful of classes; a stack array avoids heap work.
	var clsBuf [16]symtab.ClassID
	cls := clsBuf[:0]
	for _, cl := range q.Classes {
		if id, ok := ix.syms.ClassID(cl); ok && int(id) < ix.byClass.Len() {
			cls = append(cls, id)
		}
		// A class this generation never interned is referenced by none of
		// its constraints: it cannot contribute postings or satisfy a
		// requirement, so it is simply skipped. The bound check covers a
		// patch lineage's shared overlay, where an old generation can
		// resolve a class a *later* generation interned — beyond this
		// generation's spine, hence equally unreferenced here.
	}
	var ords []int32
	collect := func(post []int32) {
		for _, ord := range post {
			if ix.relevantOrd(ord, cls, q) {
				ords = append(ords, ord)
			}
		}
	}
	collect(ix.parked)
	for _, id := range cls {
		collect(ix.byClass.At(int(id)))
	}
	if len(ords) == 0 {
		return nil
	}
	// Homes are unique, so ords has no duplicates; sorting restores the
	// catalog order a linear scan would produce.
	slices.Sort(ords)
	out := make([]*constraint.Constraint, len(ords))
	for i, ord := range ords {
		out[i] = ix.all.At(int(ord))
	}
	return out
}

// relevantOrd is Constraint.RelevantTo over the precomputed requirement
// sets: every constraint class must be among the query's resolved ClassIDs,
// every structural link among its relationships.
func (ix *Index) relevantOrd(ord int32, cls []symtab.ClassID, q *query.Query) bool {
	for _, need := range ix.classIDs[ord] {
		found := false
		for _, have := range cls {
			if have == need {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for _, l := range ix.links[ord] {
		if !q.HasRelationship(l) {
			return false
		}
	}
	return true
}

// Retrieve makes *Index a core.ConstraintSource, so an engine can wire the
// index directly into the transformation loop.
func (ix *Index) Retrieve(q *query.Query) []*constraint.Constraint {
	return ix.Relevant(q)
}

// RetrievesOnlyRelevant marks the index as a prefiltered source (it
// implements core.PrefilteredSource): every constraint Retrieve returns has
// passed the full relevance check.
func (ix *Index) RetrievesOnlyRelevant() {}

// AntecedentMatches returns the constraints having an antecedent on p's
// operand signature whose satisfiable interval overlaps p's — a conservative
// superset of the constraints with an antecedent implied by p, ordered by
// (catalog ordinal, antecedent position). Signatures resolve through the
// generation's symbol space, so the probe costs one map lookup plus the
// posting row.
func (ix *Index) AntecedentMatches(p predicate.Predicate) []Match {
	sig, ok := ix.syms.SigOrdinalOf(p)
	if !ok || int(sig) >= ix.attrRows.Len() {
		return nil
	}
	post := ix.attrRows.At(int(sig))
	if len(post) == 0 {
		return nil
	}
	return matches(p, post, func(ord int32) *constraint.Constraint { return ix.all.At(int(ord)) })
}

// Stats describes the shape of one built index, for observability.
type Stats struct {
	// Constraints is the number of indexed constraints.
	Constraints int
	// ClassBuckets is the number of non-empty class posting lists.
	ClassBuckets int
	// MaxClassPosting is the length of the largest class posting list —
	// the worst-case candidate count a single-class query can touch.
	MaxClassPosting int
	// AttrKeys is the number of distinct operand signatures indexed.
	AttrKeys int
}

// Stats returns the index shape.
func (ix *Index) Stats() Stats {
	buckets := 0
	for id := 0; id < ix.byClass.Len(); id++ {
		if len(ix.byClass.At(id)) > 0 {
			buckets++
		}
	}
	if len(ix.parked) > 0 {
		buckets++
	}
	return Stats{
		Constraints:     ix.live,
		ClassBuckets:    buckets,
		MaxClassPosting: ix.maxPosting,
		AttrKeys:        ix.attrNonEmpty,
	}
}
