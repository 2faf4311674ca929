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
// Compiled, restored and patched generations resolve names one way: the
// base's frozen tables, behind an overlay holding only what patches minted
// (see Table). A Table is immutable once built and safe for unbounded
// concurrent use. String forms stay available through the accessors for
// display, traces and tests; only the hot path switches to IDs.
package symtab

import (
	"sync"

	"sqo/internal/chunked"
	"sqo/internal/constraint"
	"sqo/internal/frozen"
	"sqo/internal/predicate"
	"sqo/internal/schema"
)

// ClassID is the dense ID of an interned object-class name.
type ClassID int32

// AttrID is the dense ID of an interned (class, attribute) pair.
type AttrID int32

// PredID is the dense ID of an interned canonical predicate: its position in
// the table's predicate space (the paper's predicate pool).
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
// Every name resolves one way, whatever built the generation: through the
// overlay when the generation is patched, then through the base. The base
// is the frozen open-addressing tables (package frozen) of the generation a
// lineage started from — grown by Compile as it mints IDs, or adopted from a
// snapshot by FromImage — and never changes afterwards. Patch grows a table
// into a *lineage*: the patched generations share append-only backing arrays
// and one overlay of concurrent-read-safe maps holding only the symbols
// minted after the base, while each generation's slice headers freeze its
// own view. Untouched IDs are stable across every generation of a lineage;
// removals leave tombstones (the symbols and compiled rows of a removed
// constraint simply stop being referenced), so a re-added symbol reuses its
// old ID. See Patch.
type Table struct {
	classNames []string
	attrKeys   []attrKey

	preds   []predicate.Predicate // PredID space; first-occurrence catalog order
	predSig []int32               // PredID -> signature ordinal
	nSigs   int                   // number of distinct signatures in this generation

	// Implication adjacency among the pooled predicates, computed once per
	// generation: row i of fwd lists the PredIDs predicate i implies
	// (ascending), rev is the transpose. Hoisting this off the per-query
	// path is what lets the transformation table's implication-aware
	// matching run without a single predicate.Implies call for catalog
	// predicates. Chunked, so a patch copies only the chunks it writes.
	fwd, rev chunked.Vec[[]PredID]

	compiled []Compiled
	antsFlat []PredID

	base *base    // symbols of the lineage's base generation; shared, frozen
	over *overlay // symbols minted by the lineage's patches; nil until the first
}

// base is the frozen symbol resolution of a lineage's base generation: one
// open-addressing table per symbol space, probing into the Table's backing
// arrays (and the two arrays here) for equality confirmation.
type base struct {
	classes, attrs, sigs, preds, ords frozen.Table

	sigRep  []PredID // per signature ordinal: a pooled predicate bearing it
	ordKeys []string // per base ordinal: constraint key; "" = tombstone
}

// overlay is the shared symbol store of one patched lineage: sync.Maps are
// safe for unbounded concurrent lookups from every generation while the
// newest generation (patches are serialized by the caller) keeps inserting.
// It holds only what the lineage's patches minted; IDs are append-only, so
// a symbol entry, once stored, never changes. A constraint pointer is the
// exception: a patch may re-add it at a fresh ordinal, so ordOf keeps every
// ordinal the lineage gave it (see reAdd).
type overlay struct {
	classIDs sync.Map // string -> ClassID
	attrIDs  sync.Map // attrKey -> AttrID
	sigIDs   sync.Map // sigKey -> int32
	predIDs  sync.Map // predicate key -> PredID
	ordOf    sync.Map // *constraint.Constraint -> int32 (one add) or *reAdd

	// sigMembers lists the pooled PredIDs of each signature bucket,
	// ascending — the membership Patch needs to compute the implication
	// edges of a newly interned predicate. Mutation-side only (guarded by
	// the caller's patch serialization); never read while serving.
	sigMembers map[int32][]PredID
}

// reAdd is one re-add of a constraint pointer in a lineage: ord is the
// ordinal it gave the pointer, and prev the ordOf value it replaced (the
// int32 of the first add, or the previous re-add). Ordinals grow along the
// chain, so a generation walks it from the newest re-add down to the first
// ordinal it holds. Only a re-add allocates a link; a first add stores the
// bare ordinal.
type reAdd struct {
	ord  int32
	prev any
}

// storeOrd records that c was added at ord.
func (o *overlay) storeOrd(c *constraint.Constraint, ord int32) {
	if prev, ok := o.ordOf.Load(c); ok {
		o.ordOf.Store(c, &reAdd{ord: ord, prev: prev})
		return
	}
	o.ordOf.Store(c, ord)
}

// ordinal returns the largest ordinal the lineage gave c below n, the
// ordinal count of the asking generation.
func (o *overlay) ordinal(c *constraint.Constraint, n int) (int, bool) {
	v, _ := o.ordOf.Load(c)
	for {
		switch h := v.(type) {
		case *reAdd:
			if int(h.ord) < n {
				return int(h.ord), true
			}
			v = h.prev
		case int32:
			return int(h), int(h) < n
		default: // no patch of the lineage added c
			return 0, false
		}
	}
}

// Compile interns the symbol space of a catalog generation: the schema's
// classes and attributes (when a schema is given — queries are validated
// against it, so this makes every query symbol resolvable), plus everything
// the constraints mention. The constraint slice order is the catalog order;
// Compiled entries are parallel to it. The result is the base of a new
// lineage: its frozen tables grow as IDs are minted and end at the size a
// snapshot writer would give them.
func Compile(sch *schema.Schema, all []*constraint.Constraint) *Table {
	occurrences := 0
	for _, c := range all {
		occurrences += 1 + len(c.Antecedents)
	}
	t := &Table{
		preds:    make([]predicate.Predicate, 0, occurrences),
		compiled: make([]Compiled, 0, len(all)),
		antsFlat: make([]PredID, 0, occurrences-len(all)),
		base:     &base{ords: frozen.New(len(all)), ordKeys: make([]string, 0, len(all))},
	}

	if sch != nil {
		for _, cl := range sch.Classes() {
			t.internClass(cl)
			for _, a := range sch.EffectiveAttributes(cl) {
				t.internAttr(cl, a.Name)
			}
		}
	}

	for _, c := range all {
		t.add(c)
	}
	t.buildAdjacency()
	return t
}

// add and the intern functions mint what the generation cannot resolve yet.
// Compile records it in the base's frozen tables, a patch in the overlay.

// add compiles c at the next ordinal, interning its antecedents, consequent
// and classes in that order, which fixes the transformation table's column
// numbering.
func (t *Table) add(c *constraint.Constraint) int32 {
	ord := int32(len(t.compiled))
	if t.over != nil {
		t.over.storeOrd(c, ord)
	} else {
		t.base.ordKeys = append(t.base.ordKeys, c.Key())
		t.base.ords.Insert(c.KeyHash(), ord)
	}
	start := len(t.antsFlat)
	for _, a := range c.Antecedents {
		t.antsFlat = append(t.antsFlat, t.internPred(a))
	}
	t.compiled = append(t.compiled, Compiled{
		Cons: t.internPred(c.Consequent),
		Ants: t.antsFlat[start:len(t.antsFlat):len(t.antsFlat)],
	})
	for _, cl := range c.Classes() {
		t.internClass(cl)
	}
	return ord
}

func (t *Table) internClass(name string) ClassID {
	if id, ok := t.ClassID(name); ok {
		return id
	}
	id := ClassID(len(t.classNames))
	t.classNames = append(t.classNames, name)
	if t.over != nil {
		t.over.classIDs.Store(name, id)
	} else {
		t.base.classes.Add(hashClass(name), int32(id), func(id int32) uint64 { return hashClass(t.classNames[id]) })
	}
	return id
}

func (t *Table) internAttr(class, attr string) AttrID {
	k := attrKey{class, attr}
	if id, ok := t.AttrID(class, attr); ok {
		return id
	}
	id := AttrID(len(t.attrKeys))
	t.attrKeys = append(t.attrKeys, k)
	if t.over != nil {
		t.over.attrIDs.Store(k, id)
	} else {
		t.base.attrs.Add(hashAttr(k), int32(id), func(id int32) uint64 { return hashAttr(t.attrKeys[id]) })
	}
	return id
}

// internSig resolves a signature, minting it with rep as its first bearer.
func (t *Table) internSig(k sigKey, rep PredID) int32 {
	if id, ok := t.sigOrdinal(k); ok {
		return id
	}
	id := int32(t.nSigs)
	t.nSigs++
	if t.over != nil {
		t.over.sigIDs.Store(k, id)
	} else {
		t.base.sigRep = append(t.base.sigRep, rep)
		t.base.sigs.Add(hashSig(k), id, func(id int32) uint64 { return hashSig(sigOf(t.preds[t.base.sigRep[id]])) })
	}
	return id
}

// internPred interns one predicate, its attributes and its signature.
func (t *Table) internPred(p predicate.Predicate) PredID {
	if id, ok := t.PredID(p); ok {
		return id
	}
	id := PredID(len(t.preds))
	t.preds = append(t.preds, p)
	if t.over != nil {
		t.over.predIDs.Store(p.Key(), id)
	} else {
		t.base.preds.Add(hashPred(p), int32(id), func(id int32) uint64 { return hashPred(t.preds[id]) })
	}
	t.internClass(p.Left.Class)
	t.internAttr(p.Left.Class, p.Left.Attr)
	if p.IsJoin() {
		t.internClass(p.RightAttr.Class)
		t.internAttr(p.RightAttr.Class, p.RightAttr.Attr)
	}
	t.predSig = append(t.predSig, t.internSig(sigOf(p), id))
	return id
}

// buildAdjacency computes the implication adjacency among the pooled
// predicates, bucketed by signature ordinal (implication requires identical
// operand pairs). O(Σ bucketᵢ²) once per generation, amortized over every
// query served against it.
func (t *Table) buildAdjacency() {
	m := len(t.preds)
	fwd := make([][]PredID, m)
	rev := make([][]PredID, m)
	buckets := make(map[int32][]PredID, t.nSigs)
	for id := 0; id < m; id++ {
		sig := t.predSig[id]
		buckets[sig] = append(buckets[sig], PredID(id))
	}
	for _, ids := range buckets {
		if len(ids) < 2 {
			continue
		}
		for _, i := range ids {
			pi := t.preds[i]
			for _, j := range ids {
				if i != j && pi.Implies(t.preds[j]) {
					fwd[i] = append(fwd[i], j)
				}
			}
		}
	}
	for i, list := range fwd {
		for _, j := range list {
			rev[j] = append(rev[j], PredID(i))
		}
	}
	t.fwd, t.rev = chunked.From(fwd), chunked.From(rev)
}

// NumClasses returns the number of interned class names.
func (t *Table) NumClasses() int { return len(t.classNames) }

// NumAttrs returns the number of interned (class, attribute) pairs.
func (t *Table) NumAttrs() int { return len(t.attrKeys) }

// NumPreds returns the number of interned canonical predicates.
func (t *Table) NumPreds() int { return len(t.preds) }

// NumSigs returns the number of distinct operand signatures.
func (t *Table) NumSigs() int { return t.nSigs }

// ClassID resolves a class name; ok is false when the lineage never
// interned it. Like every lookup below, a generation can resolve a symbol a
// later generation of its lineage minted; callers bound IDs by their
// generation's counts where that matters.
func (t *Table) ClassID(name string) (ClassID, bool) {
	if t.over != nil {
		if v, ok := t.over.classIDs.Load(name); ok {
			return v.(ClassID), true
		}
	}
	id, ok := t.base.classes.Find(hashClass(name), func(id int32) bool {
		return t.classNames[id] == name
	})
	return ClassID(id), ok
}

// ClassName returns the name of an interned class.
func (t *Table) ClassName(id ClassID) string { return t.classNames[id] }

// AttrID resolves a (class, attribute) pair.
func (t *Table) AttrID(class, attr string) (AttrID, bool) {
	k := attrKey{class, attr}
	if t.over != nil {
		if v, ok := t.over.attrIDs.Load(k); ok {
			return v.(AttrID), true
		}
	}
	id, ok := t.base.attrs.Find(hashAttr(k), func(id int32) bool {
		return t.attrKeys[id] == k
	})
	return AttrID(id), ok
}

// AttrName returns the (class, attribute) pair of an interned attribute.
func (t *Table) AttrName(id AttrID) (class, attr string) {
	k := t.attrKeys[id]
	return k.class, k.attr
}

// PredID resolves a canonical predicate. The lookup hashes the predicate's
// construction-time cached key; it never allocates.
func (t *Table) PredID(p predicate.Predicate) (PredID, bool) {
	key := p.Key()
	if t.over != nil {
		if v, ok := t.over.predIDs.Load(key); ok {
			return v.(PredID), true
		}
	}
	id, ok := t.base.preds.Find(hashPred(p), func(id int32) bool {
		return t.preds[id].Key() == key
	})
	return PredID(id), ok
}

// Pred returns the predicate with the given ID.
func (t *Table) Pred(id PredID) predicate.Predicate { return t.preds[id] }

// SigOrdinal returns the signature ordinal of an interned predicate. Two
// predicates can imply one another only when their ordinals are equal.
func (t *Table) SigOrdinal(id PredID) int32 { return t.predSig[id] }

// SigOrdinalOf resolves the signature ordinal of an arbitrary predicate,
// interned or not; ok is false when no catalog predicate shares its
// signature (such a predicate can only imply query-private peers).
func (t *Table) SigOrdinalOf(p predicate.Predicate) (int32, bool) {
	return t.sigOrdinal(sigOf(p))
}

func (t *Table) sigOrdinal(k sigKey) (int32, bool) {
	if t.over != nil {
		if v, ok := t.over.sigIDs.Load(k); ok {
			return v.(int32), true
		}
	}
	return t.base.sigs.Find(hashSig(k), func(id int32) bool {
		return sigOf(t.preds[t.base.sigRep[id]]) == k
	})
}

// Implies returns the PredIDs that predicate id implies, ascending. The
// slice aliases the table; treat as read-only.
func (t *Table) Implies(id PredID) []PredID { return t.fwd.At(int(id)) }

// ImpliedBy returns the PredIDs implying predicate id, ascending.
func (t *Table) ImpliedBy(id PredID) []PredID { return t.rev.At(int(id)) }

// Ordinal returns the catalog ordinal of a constraint of this generation;
// ok is false for constraints the generation never held (including those a
// later generation of the same lineage appended after this one was taken).
// The overlay, keyed by constraint pointer, is read first: a constraint a
// patch re-added resolves to the newest ordinal this generation holds, so a
// generation a later re-add superseded keeps the one it was built with.
// Without one there, the base is read; it is keyed by constraint key, so any
// constraint equal to a base constraint resolves to that one's ordinal.
func (t *Table) Ordinal(c *constraint.Constraint) (int, bool) {
	if t.over != nil {
		if ord, ok := t.over.ordinal(c, len(t.compiled)); ok {
			return ord, true
		}
	}
	key := c.Key()
	ord, ok := t.base.ords.Find(c.KeyHash(), func(id int32) bool {
		return t.base.ordKeys[id] == key
	})
	if !ok {
		return 0, false
	}
	return int(ord), true
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
