// Package symtab compiles a catalog generation into an interned symbol
// space: every object class, attribute, operand signature and canonical
// predicate that the generation can ever mention is assigned a dense integer
// ID exactly once, at catalog build time, and the per-query layers of the
// optimizer operate on those IDs instead of strings.
//
// The motivation is the paper's own economics: semantic optimization only
// pays off while the optimizer's cost stays far below the execution savings.
// After the retrieval index made finding the relevant constraints sublinear,
// the remaining per-query cost was dominated by string work — predicate keys
// hashed into per-query interning maps, canonical signatures rebuilt for
// implication bucketing, class names compared during relevance checks. All
// of that is a pure function of the catalog, so it is hoisted here and
// computed once per compiled generation (NewEngine, or a catalog mutation
// that rebuilds), alongside the constraint index; Patch derives the next
// generation of a delta by structural sharing.
//
// A Table is immutable after Compile and safe for unbounded concurrent use.
// String forms stay available through the accessors for display, traces and
// tests; only the hot path switches to IDs.
package symtab

import (
	"sync"

	"sqo/internal/constraint"
	"sqo/internal/predicate"
	"sqo/internal/schema"
)

// ClassID is the dense ID of an interned object-class name.
type ClassID int32

// AttrID is the dense ID of an interned (class, attribute) pair.
type AttrID int32

// PredID is the dense ID of an interned canonical predicate — the pool
// ordinal of the catalog's predicate pool.
type PredID int32

// None is the sentinel for "not interned" in all three ID spaces.
const None = -1

// Compiled is the ID form of one constraint: its consequent and antecedent
// predicates resolved to PredIDs. Ants aliases the table's backing array;
// treat as read-only.
type Compiled struct {
	Cons PredID
	Ants []PredID
}

// attrKey identifies an attribute for interning; a comparable struct so
// lookups never build a string.
type attrKey struct {
	class, attr string
}

// sigKey is the comparable form of a predicate's operand signature. Two
// predicates can stand in an implication relation only when their signatures
// are equal (predicate.Implies reasons over identical operand pairs).
type sigKey struct {
	left, right predicate.AttrRef
	join        bool
}

func sigOf(p predicate.Predicate) sigKey {
	k := sigKey{left: p.Left, join: p.IsJoin()}
	if k.join {
		k.right = p.RightAttr
	}
	return k
}

// Table is the interned symbol space of one catalog generation.
//
// A table built by Compile is fully immutable. Patch grows a table into a
// *lineage*: the patched generations share append-only backing arrays and a
// set of concurrent-read-safe symbol maps (liveMaps), while each generation's
// slice headers freeze its own view. Untouched IDs are stable across every
// generation of a lineage; removals leave tombstones (the symbols and
// compiled rows of a removed constraint simply stop being referenced), so a
// re-added symbol reuses its old ID. See Patch.
type Table struct {
	classNames []string
	classIDs   map[string]ClassID

	attrKeys []attrKey
	attrIDs  map[attrKey]AttrID

	pool    *predicate.Pool // PredID space; first-occurrence catalog order
	predSig []int32         // PredID -> signature ordinal
	sigIDs  map[sigKey]int32
	nSigs   int // number of distinct signatures in this generation

	// Implication adjacency among the pooled predicates, computed once per
	// generation: fwd[i] lists the PredIDs predicate i implies (ascending),
	// rev is the transpose. Hoisting this off the per-query path is what
	// lets the transformation table's implication-aware matching run
	// without a single predicate.Implies call for catalog predicates.
	fwd, rev [][]PredID

	compiled []Compiled
	antsFlat []PredID
	ordOf    map[*constraint.Constraint]int32

	// live, when non-nil, marks a patched generation: symbol resolution
	// goes through the lineage's shared concurrent maps instead of the
	// plain per-generation maps above (which are nil then). Compile-built
	// tables have live == nil and pay no overhead beyond the nil check.
	live *liveMaps

	// frz, when non-nil, marks a snapshot-restored generation: the plain
	// maps are nil and pre-snapshot symbols resolve through frozen
	// open-addressing tables loaded straight from the snapshot file (see
	// image.go) — the restore path never rebuilds a Go map. A lineage
	// patched from a restored table keeps frz as the fallback behind the
	// shared live maps, which then hold only post-snapshot symbols.
	frz *frozenLookups
}

// liveMaps is the shared symbol store of one mutable lineage: sync.Maps are
// safe for unbounded concurrent lookups from every generation while the
// newest generation (patches are serialized by the caller) keeps inserting.
// IDs are append-only, so an entry, once stored, never changes.
type liveMaps struct {
	classIDs sync.Map // string -> ClassID
	attrIDs  sync.Map // attrKey -> AttrID
	sigIDs   sync.Map // sigKey -> int32
	ordOf    sync.Map // *constraint.Constraint -> int32

	// sigMembers lists the pooled PredIDs of each signature bucket,
	// ascending — the membership Patch needs to compute the implication
	// edges of a newly interned predicate. Mutation-side only (guarded by
	// the caller's patch serialization); never read while serving.
	sigMembers map[int32][]PredID
	nextSig    int32
}

// Compile interns the symbol space of a catalog generation: the schema's
// classes and attributes (when a schema is given — queries are validated
// against it, so this makes every query symbol resolvable), plus everything
// the constraints mention. The constraint slice order is the catalog order;
// Compiled entries are parallel to it.
func Compile(sch *schema.Schema, all []*constraint.Constraint) *Table {
	t := &Table{
		classIDs: make(map[string]ClassID),
		attrIDs:  make(map[attrKey]AttrID),
		sigIDs:   make(map[sigKey]int32),
		ordOf:    make(map[*constraint.Constraint]int32, len(all)),
	}

	if sch != nil {
		for _, cl := range sch.Classes() {
			t.internClass(cl)
			for _, a := range sch.EffectiveAttributes(cl) {
				t.internAttr(cl, a.Name)
			}
		}
	}

	occurrences := 0
	for _, c := range all {
		occurrences += 1 + len(c.Antecedents)
	}
	t.pool = predicate.NewPoolSize(occurrences)
	t.antsFlat = make([]PredID, 0, occurrences-len(all))
	t.compiled = make([]Compiled, len(all))

	for i, c := range all {
		t.ordOf[c] = int32(i)
		start := len(t.antsFlat)
		for _, a := range c.Antecedents {
			t.antsFlat = append(t.antsFlat, t.internPred(a))
		}
		t.compiled[i] = Compiled{
			Cons: t.internPred(c.Consequent),
			Ants: t.antsFlat[start:len(t.antsFlat):len(t.antsFlat)],
		}
		for _, cl := range c.Classes() {
			t.internClass(cl)
		}
	}

	t.buildAdjacency()
	t.nSigs = len(t.sigIDs)
	return t
}

func (t *Table) internClass(name string) ClassID {
	if t.live != nil {
		if id, ok := t.live.classIDs.Load(name); ok {
			return id.(ClassID)
		}
		if t.frz != nil {
			if id, ok := t.frzClass(name); ok {
				return id
			}
		}
		id := ClassID(len(t.classNames))
		t.live.classIDs.Store(name, id)
		t.classNames = append(t.classNames, name)
		return id
	}
	if id, ok := t.classIDs[name]; ok {
		return id
	}
	id := ClassID(len(t.classNames))
	t.classIDs[name] = id
	t.classNames = append(t.classNames, name)
	return id
}

func (t *Table) internAttr(class, attr string) AttrID {
	k := attrKey{class, attr}
	if t.live != nil {
		if id, ok := t.live.attrIDs.Load(k); ok {
			return id.(AttrID)
		}
		if t.frz != nil {
			if id, ok := t.frzAttr(k); ok {
				return id
			}
		}
		id := AttrID(len(t.attrKeys))
		t.live.attrIDs.Store(k, id)
		t.attrKeys = append(t.attrKeys, k)
		return id
	}
	if id, ok := t.attrIDs[k]; ok {
		return id
	}
	id := AttrID(len(t.attrKeys))
	t.attrIDs[k] = id
	t.attrKeys = append(t.attrKeys, k)
	return id
}

func (t *Table) internSig(k sigKey) int32 {
	if t.live != nil {
		if id, ok := t.live.sigIDs.Load(k); ok {
			return id.(int32)
		}
		if t.frz != nil {
			if id, ok := t.frzSig(k); ok {
				return id
			}
		}
		id := t.live.nextSig
		t.live.nextSig++
		t.live.sigIDs.Store(k, id)
		t.nSigs = int(t.live.nextSig)
		return id
	}
	if id, ok := t.sigIDs[k]; ok {
		return id
	}
	id := int32(len(t.sigIDs))
	t.sigIDs[k] = id
	return id
}

// internPred interns one predicate, its attributes and its signature.
func (t *Table) internPred(p predicate.Predicate) PredID {
	before := t.pool.Len()
	id := t.pool.Intern(p)
	if id == before { // newly interned
		t.internClass(p.Left.Class)
		t.internAttr(p.Left.Class, p.Left.Attr)
		if p.IsJoin() {
			t.internClass(p.RightAttr.Class)
			t.internAttr(p.RightAttr.Class, p.RightAttr.Attr)
		}
		t.predSig = append(t.predSig, t.internSig(sigOf(p)))
	}
	return PredID(id)
}

// buildAdjacency computes the implication adjacency among the pooled
// predicates, bucketed by signature ordinal (implication requires identical
// operand pairs). O(Σ bucketᵢ²) once per generation, amortized over every
// query served against it.
func (t *Table) buildAdjacency() {
	m := t.pool.Len()
	t.fwd = make([][]PredID, m)
	t.rev = make([][]PredID, m)
	buckets := make(map[int32][]PredID, len(t.sigIDs))
	for id := 0; id < m; id++ {
		sig := t.predSig[id]
		buckets[sig] = append(buckets[sig], PredID(id))
	}
	for _, ids := range buckets {
		if len(ids) < 2 {
			continue
		}
		for _, i := range ids {
			pi := t.pool.At(int(i))
			for _, j := range ids {
				if i != j && pi.Implies(t.pool.At(int(j))) {
					t.fwd[i] = append(t.fwd[i], j)
				}
			}
		}
	}
	for i, list := range t.fwd {
		for _, j := range list {
			t.rev[j] = append(t.rev[j], PredID(i))
		}
	}
}

// NumClasses returns the number of interned class names.
func (t *Table) NumClasses() int { return len(t.classNames) }

// NumAttrs returns the number of interned (class, attribute) pairs.
func (t *Table) NumAttrs() int { return len(t.attrKeys) }

// NumPreds returns the number of interned canonical predicates.
func (t *Table) NumPreds() int { return t.pool.Len() }

// NumSigs returns the number of distinct operand signatures.
func (t *Table) NumSigs() int { return t.nSigs }

// ClassID resolves a class name; ok is false when the generation never
// interned it.
func (t *Table) ClassID(name string) (ClassID, bool) {
	if t.live != nil {
		if v, ok := t.live.classIDs.Load(name); ok {
			return v.(ClassID), true
		}
		if t.frz == nil {
			return None, false
		}
	}
	if t.frz != nil {
		return t.frzClass(name)
	}
	id, ok := t.classIDs[name]
	return id, ok
}

// ClassName returns the name of an interned class.
func (t *Table) ClassName(id ClassID) string { return t.classNames[id] }

// AttrID resolves a (class, attribute) pair.
func (t *Table) AttrID(class, attr string) (AttrID, bool) {
	if t.live != nil {
		if v, ok := t.live.attrIDs.Load(attrKey{class, attr}); ok {
			return v.(AttrID), true
		}
		if t.frz == nil {
			return None, false
		}
	}
	if t.frz != nil {
		return t.frzAttr(attrKey{class, attr})
	}
	id, ok := t.attrIDs[attrKey{class, attr}]
	return id, ok
}

// AttrName returns the (class, attribute) pair of an interned attribute.
func (t *Table) AttrName(id AttrID) (class, attr string) {
	k := t.attrKeys[id]
	return k.class, k.attr
}

// PredID resolves a canonical predicate. The lookup hashes the predicate's
// construction-time cached key; it never allocates.
func (t *Table) PredID(p predicate.Predicate) (PredID, bool) {
	id, ok := t.pool.Lookup(p)
	return PredID(id), ok
}

// Pred returns the predicate with the given ID.
func (t *Table) Pred(id PredID) predicate.Predicate { return t.pool.At(int(id)) }

// Pool exposes the underlying predicate pool (read-only) — the paper's
// pointer-compression structure for materialized closures.
func (t *Table) Pool() *predicate.Pool { return t.pool }

// SigOrdinal returns the signature ordinal of an interned predicate. Two
// predicates can imply one another only when their ordinals are equal.
func (t *Table) SigOrdinal(id PredID) int32 { return t.predSig[id] }

// SigOrdinalOf resolves the signature ordinal of an arbitrary predicate,
// interned or not; ok is false when no catalog predicate shares its
// signature (such a predicate can only imply query-private peers).
func (t *Table) SigOrdinalOf(p predicate.Predicate) (int32, bool) {
	if t.live != nil {
		if v, ok := t.live.sigIDs.Load(sigOf(p)); ok {
			return v.(int32), true
		}
		if t.frz == nil {
			return 0, false
		}
	}
	if t.frz != nil {
		return t.frzSig(sigOf(p))
	}
	id, ok := t.sigIDs[sigOf(p)]
	return id, ok
}

// Implies returns the PredIDs that predicate id implies, ascending. The
// slice aliases the table; treat as read-only.
func (t *Table) Implies(id PredID) []PredID { return t.fwd[id] }

// ImpliedBy returns the PredIDs implying predicate id, ascending.
func (t *Table) ImpliedBy(id PredID) []PredID { return t.rev[id] }

// Ordinal returns the catalog ordinal of a constraint of this generation;
// ok is false for foreign constraints (including constraints a later
// generation of the same lineage appended after this one was taken).
func (t *Table) Ordinal(c *constraint.Constraint) (int, bool) {
	if t.live != nil {
		if v, ok := t.live.ordOf.Load(c); ok {
			if int(v.(int32)) >= len(t.compiled) {
				return 0, false
			}
			return int(v.(int32)), true
		}
		if t.frz == nil {
			return 0, false
		}
	}
	if t.frz != nil {
		return t.frzOrd(c)
	}
	ord, ok := t.ordOf[c]
	return int(ord), ok
}

// CompiledAt returns the ID form of the constraint at a catalog ordinal.
func (t *Table) CompiledAt(ord int) Compiled { return t.compiled[ord] }

// CompiledFor resolves a constraint to its ID form; ok is false for
// constraints from another generation.
func (t *Table) CompiledFor(c *constraint.Constraint) (Compiled, bool) {
	ord, ok := t.Ordinal(c)
	if !ok {
		return Compiled{}, false
	}
	return t.compiled[ord], true
}
