// Package delta implements incremental catalog mutation: the op model of a
// catalog delta (add / remove / replace), its validation against the current
// generation, and the append-only ordinal space that lets every generation-
// scoped structure — interned symbol space, inverted index, cached results'
// dependency sets — survive a mutation untouched except where the delta
// actually lands.
//
// The paper's optimizer assumes a fixed integrity-constraint catalog. A
// serving engine that recompiled the symbol space, rebuilt the index and
// discarded the whole result cache on every change would price a one-rule
// change at O(|catalog|); under live traffic with evolving constraint stores
// (Chomicki's preference-query setting, Siegel-style state rules re-derived
// as the data shifts) a change should cost O(|delta|). Both of the engine's
// mutations are deltas here: an update states its ops, and a swap to a
// whole catalog is planned as the exact delta Gen.Swap finds.
//
// The enabling invariant is ordinal stability: within one mutation lineage
// (started by an engine construction or a rebuild, advanced by deltas), a
// constraint keeps its catalog ordinal forever. Removals tombstone ordinals
// instead of compacting them; additions append fresh ordinals. Catalog
// order — which the optimizer's output provably depends on only through the
// retrieval order — is then preserved by construction: survivors keep their
// relative order and additions go last, exactly as if the final catalog had
// been declared from scratch in that order.
//
// State is the mutation-side bookkeeping (live id/key maps, the ordinal
// space); it is owned by the engine and guarded by the engine's swap lock.
// Gen is the immutable per-generation view published to readers.
package delta

import (
	"fmt"
	"slices"

	"sqo/internal/constraint"
	"sqo/internal/predicate"
	"sqo/internal/schema"
)

// Kind labels one delta op.
type Kind uint8

const (
	// Add appends a constraint to the catalog.
	Add Kind = iota
	// Remove deletes the constraint with the given ID.
	Remove
	// Replace atomically removes the constraint with the given ID and
	// appends a new one in its stead (at the end of the catalog order).
	Replace
)

// Op is one mutation: Add carries C, Remove carries ID, Replace carries
// both.
type Op struct {
	Kind Kind
	ID   string
	C    *constraint.Constraint
}

// Plan is a validated delta, resolved against one generation: the ordinals
// to tombstone (Removed holds their constraints, position for position) and
// the constraints to append. Logical duplicates among the adds (a
// constraint whose canonical key the live catalog already holds) have been
// dropped, mirroring Catalog.Add's merge semantics.
type Plan struct {
	RemovedOrds []int32
	Removed     []*constraint.Constraint
	Added       []*constraint.Constraint
}

// Empty reports whether the plan changes nothing.
func (p Plan) Empty() bool { return len(p.RemovedOrds) == 0 && len(p.Added) == 0 }

// State is the mutation-side bookkeeping of one lineage. All access is
// serialized by the owning engine's swap lock; readers never touch it.
type State struct {
	all  []*constraint.Constraint // ordinal space, tombstones in place
	dead tombs
	live int

	byID  map[string]int32 // live ID -> ordinal
	byKey map[string]int32 // live canonical key -> ordinal
}

// NewState seeds the lineage from the ordered constraint set of the current
// generation (ordinal i = position i).
func NewState(all []*constraint.Constraint) *State {
	s := &State{
		all:   all,
		dead:  make(tombs, words(len(all))),
		live:  len(all),
		byID:  make(map[string]int32, len(all)),
		byKey: make(map[string]int32, len(all)),
	}
	for i, c := range all {
		s.byID[c.ID] = int32(i)
		s.byKey[c.Key()] = int32(i)
	}
	return s
}

// Live returns the number of live constraints.
func (s *State) Live() int { return s.live }

// Dead returns the number of tombstoned ordinals.
func (s *State) Dead() int { return len(s.all) - s.live }

// Constraints returns the live constraints in catalog order (fresh slice).
func (s *State) Constraints() []*constraint.Constraint {
	out := make([]*constraint.Constraint, 0, s.live)
	for i, c := range s.all {
		if !s.dead.has(i) {
			out = append(out, c)
		}
	}
	return out
}

// tombs is a tombstone set: bit ord is set when ordinal ord is tombstoned.
// A bit per ordinal keeps the copy that freezes each generation small.
type tombs []uint64

// words returns the length of a tombstone set covering n ordinals.
func words(n int) int { return (n + 63) >> 6 }

func (t tombs) has(ord int) bool { return t[ord>>6]&(1<<(ord&63)) != 0 }

func (t tombs) set(ord int) { t[ord>>6] |= 1 << (ord & 63) }

// Plan validates ops in order against the current state without mutating
// it: removals must name a live constraint, additions must validate against
// the schema and not collide with a live ID. Key-duplicate additions are
// silently dropped (Catalog.Add merges them); a replace whose new
// constraint duplicates a surviving key degrades to a pure removal.
func (s *State) Plan(ops []Op, sch *schema.Schema) (Plan, error) {
	var p Plan
	removed := map[int32]bool{}
	addByID := map[string]int{} // id -> index into p.Added
	addByKey := map[string]bool{}
	remove := func(id string) error {
		ord, ok := s.byID[id]
		if ok && removed[ord] {
			ok = false
		}
		if !ok {
			// The id may name a constraint added earlier in this same
			// delta; removing that simply cancels the addition.
			if i, here := addByID[id]; here && p.Added[i] != nil {
				delete(addByKey, p.Added[i].Key())
				p.Added[i] = nil
				delete(addByID, id)
				return nil
			}
			return fmt.Errorf("delta: remove %q: no such constraint", id)
		}
		removed[ord] = true
		if p.Removed == nil {
			p.Removed = make([]*constraint.Constraint, 0, len(ops))
		}
		p.RemovedOrds = append(p.RemovedOrds, ord)
		p.Removed = append(p.Removed, s.all[ord])
		return nil
	}
	add := func(c *constraint.Constraint) error {
		if c == nil {
			return fmt.Errorf("delta: add requires a constraint")
		}
		if err := c.Validate(sch); err != nil {
			return fmt.Errorf("delta: add %q: %w", c.ID, err)
		}
		if ord, ok := s.byID[c.ID]; ok && !removed[ord] {
			return fmt.Errorf("delta: add %q: id already in catalog", c.ID)
		}
		if _, ok := addByID[c.ID]; ok {
			return fmt.Errorf("delta: add %q: id added twice in one delta", c.ID)
		}
		key := c.Key()
		if ord, ok := s.byKey[key]; ok && !removed[ord] {
			return nil // logical duplicate of a live constraint: merged
		}
		if addByKey[key] {
			return nil // logical duplicate within the delta: merged
		}
		addByID[c.ID] = len(p.Added)
		addByKey[key] = true
		p.Added = append(p.Added, c)
		return nil
	}
	for _, op := range ops {
		switch op.Kind {
		case Remove:
			if err := remove(op.ID); err != nil {
				return Plan{}, err
			}
		case Add:
			if err := add(op.C); err != nil {
				return Plan{}, err
			}
		case Replace:
			if err := remove(op.ID); err != nil {
				return Plan{}, err
			}
			if err := add(op.C); err != nil {
				return Plan{}, err
			}
		default:
			return Plan{}, fmt.Errorf("delta: unknown op kind %d", op.Kind)
		}
	}
	// Compact additions cancelled by a later removal in the same delta.
	kept := p.Added[:0]
	for _, c := range p.Added {
		if c != nil {
			kept = append(kept, c)
		}
	}
	p.Added = kept
	return p, nil
}

// Commit applies a validated plan: tombstones the removed ordinals and
// appends the added constraints at addedOrds (which must be the next
// ordinals in sequence, as symtab.Patch assigns them).
func (s *State) Commit(p Plan, addedOrds []int32) {
	for _, ord := range p.RemovedOrds {
		c := s.all[ord]
		s.dead.set(int(ord))
		s.live--
		delete(s.byID, c.ID)
		delete(s.byKey, c.Key())
	}
	for i, c := range p.Added {
		ord := addedOrds[i]
		if int(ord) != len(s.all) {
			panic("delta: non-contiguous ordinal assignment")
		}
		if len(s.dead) < words(len(s.all)+1) {
			s.dead = append(s.dead, 0)
		}
		s.all = append(s.all, c)
		s.live++
		s.byID[c.ID] = ord
		s.byKey[c.Key()] = ord
	}
}

// Gen is the immutable catalog view of one generation: the frozen ordinal
// space plus its tombstone set. Engines publish one per generation, however
// it was built; Constraints materializes the live catalog order on demand.
type Gen struct {
	all  constraint.Ordinals
	dead tombs
	live int
}

// Snapshot freezes the current state into a generation view. The ordinal
// slice header is shared (append-only backing); the tombstone set is copied
// so later commits cannot disturb published generations.
func (s *State) Snapshot() *Gen {
	return &Gen{
		all:  constraint.OrdinalsOf(s.all),
		dead: slices.Clone(s.dead),
		live: s.live,
	}
}

// NewGen builds a generation view directly from an ordinal space — a
// compiled catalog's or a restored snapshot's entry point into a lineage.
// all is aliased (the ordinal space is append-only from here on); dead is
// copied. A nil dead means every ordinal is live.
func NewGen(all constraint.Ordinals, dead []bool) *Gen {
	g := &Gen{all: all, dead: make(tombs, words(all.Len())), live: all.Len()}
	for i, d := range dead {
		if d {
			g.dead.set(i)
			g.live--
		}
	}
	return g
}

// Ordinals exposes the generation's full ordinal space, aliased — callers
// must treat it as read-only — and its tombstone set, one flag per ordinal.
// Snapshot writers use this to persist tombstones in place rather than
// compacting them away.
func (g *Gen) Ordinals() (constraint.Ordinals, []bool) {
	dead := make([]bool, g.all.Len())
	for i := range dead {
		dead[i] = g.dead.has(i)
	}
	return g.all, dead
}

// NewStateFromGen seeds mutation-side bookkeeping from a published
// generation, so a lineage can continue from a restored snapshot exactly
// where the saved lineage left off. The ordinal space is copied out in full
// (building whatever a lazy restore has not built yet) and grows by append
// from there, so the generation stays frozen; the live maps are rebuilt in
// O(ordinals).
func NewStateFromGen(g *Gen) *State {
	s := &State{
		all:   g.all.Slice(),
		dead:  slices.Clone(g.dead),
		live:  g.live,
		byID:  make(map[string]int32, g.live),
		byKey: make(map[string]int32, g.live),
	}
	for i, c := range s.all {
		if !s.dead.has(i) {
			s.byID[c.ID] = int32(i)
			s.byKey[c.Key()] = int32(i)
		}
	}
	return s
}

// Live returns the number of live constraints of the generation.
func (g *Gen) Live() int { return g.live }

// Dead returns the number of tombstoned ordinals of the generation.
func (g *Gen) Dead() int { return g.all.Len() - g.live }

// Swap walks cs, the catalog a swap asks the engine to serve, against the
// generation's live constraints in ordinal order. A constraint of cs
// survives when the live constraints after the previous survivor hold one
// equal to it in every exported field (predicates compared by Key); the
// walk stops at the first that does not, so cs[:kept] are the survivors.
// ops is the exact delta: remove every live constraint that did not
// survive, in ordinal order, then append cs[kept:]. Survivors keep their
// ordinals and additions append, so the lineage then serves cs in cs's
// order, as a generation compiled from cs would. The walk is
// O(live + len(cs)) and builds no map.
func (g *Gen) Swap(cs []*constraint.Constraint) (ops []Op, kept int) {
	for ord := range g.all.Len() {
		if g.dead.has(ord) {
			continue
		}
		if c := g.all.At(ord); kept < len(cs) && same(c, cs[kept]) {
			kept++
		} else {
			ops = append(ops, Op{Kind: Remove, ID: c.ID})
		}
	}
	for _, c := range cs[kept:] {
		ops = append(ops, Op{Kind: Add, C: c})
	}
	return ops, kept
}

// same reports whether a and b agree in every exported field.
func same(a, b *constraint.Constraint) bool {
	return a == b || a.ID == b.ID && a.Doc == b.Doc && a.StateDependent == b.StateDependent &&
		slices.Equal(a.Links, b.Links) && a.Consequent.Equal(b.Consequent) &&
		slices.EqualFunc(a.Antecedents, b.Antecedents, predicate.Predicate.Equal)
}

// Constraints returns the generation's live constraints in catalog order.
func (g *Gen) Constraints() []*constraint.Constraint {
	out := make([]*constraint.Constraint, 0, g.live)
	for i := range g.all.Len() {
		if !g.dead.has(i) {
			out = append(out, g.all.At(i))
		}
	}
	return out
}

// Rebuild applies ops to a plain catalog and returns the resulting catalog
// plus the validated plan — the from-scratch reference semantics of a
// delta, shared by the engine's rebuild of an update and the differential
// tests. The result contains the surviving constraints in
// their original order followed by the additions, exactly the live order an
// incremental lineage maintains.
func Rebuild(cat *constraint.Catalog, ops []Op, sch *schema.Schema) (*constraint.Catalog, Plan, error) {
	tmp := NewState(cat.All())
	p, err := tmp.Plan(ops, sch)
	if err != nil {
		return nil, Plan{}, err
	}
	ords := make([]int32, len(p.Added))
	for i := range ords {
		ords[i] = int32(len(tmp.all) + i)
	}
	tmp.Commit(p, ords)
	out, err := constraint.NewCatalog(tmp.Constraints()...)
	if err != nil {
		return nil, Plan{}, err
	}
	return out, p, nil
}
