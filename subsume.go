package sqo

import (
	"time"

	"sqo/internal/core"
	"sqo/internal/predicate"
)

// Containment-aware cache lookup.
//
// On a canonical miss, the engine probes the cached generalizations sharing
// the query's envelope (projection, joins, relationships, classes — every
// part except the selective conjuncts). A cached canonical query g contains
// the incoming canonical query cq when cq = g ∧ extras for selective
// conjuncts `extras`, and the optimization of cq is *derivable* from the
// cached optimization of g — cached plan plus a residual pass applying the
// extras — whenever every extra is provably inert to the transformation
// table:
//
//   - no live constraint mentions the extra's (class, attr) anywhere, so
//     the extra can never fire a rule, be implied redundant, or contradict
//     an introduced predicate;
//   - no predicate of g touches the attr, so intra-query implication,
//     contradiction and subsumption passes see nothing new;
//   - the extras are pairwise on distinct attrs, for the same reason;
//   - the extra's class survived g's optimization, so it cannot flip a
//     class-elimination decision (a failed elimination candidacy has no
//     side effects);
//   - the cost model is query-insensitive (checked at construction), so
//     formulation's cost-benefit decisions cannot observe the extras.
//
// Under those conditions every decision the cold optimizer would take on cq
// is the decision it took on g, and the output differs exactly by the extras
// sitting untouched (imperative) at their canonical positions — which is
// what deriveContained assembles. This is the decidable conjunctive class of
// Chirkova (PAPERS.md) specialized to the paper's predicate calculus;
// anything outside it bails to cold optimization. The differential suite
// holds derivations byte-identical to cold runs.

// maxGenProbe bounds how many cached generalizations one lookup verifies;
// past that the check itself would rival cold optimization.
const maxGenProbe = 16

// trySubsume probes the cached generalizations of cq's envelope and, on a
// provable containment, derives the result, stores it under cq's own
// canonical key (so repeats hit the primary path), and returns it. A nil
// return means no cached generalization answers cq.
func (e *Engine) trySubsume(st *engineState, key QueryFingerprint, cq *Query) *Result {
	start := time.Now()
	var buf [maxGenProbe]genCandidate
	cands := e.cache.generalizations(envelopeFingerprint(cq), st.epoch, buf[:0], maxGenProbe, len(cq.Selects))
	if len(cands) == 0 {
		return nil
	}
	mentioned := st.mentionSet()
	for _, cand := range cands {
		extras, ok := e.containedBy(cand.cq, cq, cand.res, mentioned)
		if !ok {
			continue
		}
		res := deriveContained(cand.cq, cand.res, cq, extras, start)
		if res == nil {
			continue
		}
		e.cache.subsumed(len(extras))
		// Cache under cq's own canonical key so repeats are exact hits —
		// but do NOT index the derived result as a generalization
		// candidate: anything it would contain, its own generalization
		// (still in the bucket) contains too, and near-duplicate traffic
		// would otherwise bloat the envelope bucket with entries that can
		// never win a probe.
		e.cache.put(key, st.epoch, res)
		return res
	}
	return nil
}

// containedBy reports whether the cached canonical query g contains cq with
// a provably inert residual, returning the extra conjuncts. Both queries are
// canonical: every list sorted, conjuncts deduplicated.
func (e *Engine) containedBy(g, cq *Query, gRes *Result, mentioned map[predicate.AttrRef]struct{}) ([]Predicate, bool) {
	// Envelope equality, structurally — the fingerprint routed us here,
	// but a 128-bit match is not proof.
	if len(g.Project) != len(cq.Project) || len(g.Joins) != len(cq.Joins) ||
		len(g.Relationships) != len(cq.Relationships) || len(g.Classes) != len(cq.Classes) {
		return nil, false
	}
	for i, a := range g.Project {
		if a != cq.Project[i] {
			return nil, false
		}
	}
	for i, p := range g.Joins {
		if p.Key() != cq.Joins[i].Key() {
			return nil, false
		}
	}
	for i, r := range g.Relationships {
		if r != cq.Relationships[i] {
			return nil, false
		}
	}
	for i, c := range g.Classes {
		if c != cq.Classes[i] {
			return nil, false
		}
	}
	// Selective containment: g.Selects must be a subsequence of cq.Selects
	// under the shared key order; the complement is the residual.
	var extras []Predicate
	i := 0
	for _, p := range cq.Selects {
		if i < len(g.Selects) && g.Selects[i].Key() == p.Key() {
			i++
			continue
		}
		extras = append(extras, p)
	}
	if i != len(g.Selects) {
		return nil, false // g has a conjunct cq lacks: not a generalization
	}
	if len(extras) == 0 {
		// Same selective set yet a different canonical fingerprint: a
		// hash collision. Never serve across one.
		return nil, false
	}
	// Inertness of every extra.
	for k, p := range extras {
		if p.IsJoin() {
			return nil, false
		}
		if p.Validate(e.schema) != nil {
			return nil, false
		}
		if _, hit := mentioned[p.Left]; hit {
			return nil, false // a constraint could interact with it
		}
		if !gRes.Optimized.HasClass(p.Left.Class) {
			return nil, false // its class was eliminated from the plan
		}
		for _, gp := range g.Selects {
			if gp.Left == p.Left {
				return nil, false // same-attr reasoning could trigger
			}
		}
		for _, gp := range g.Joins {
			if gp.Left == p.Left || gp.RightAttr == p.Left {
				return nil, false
			}
		}
		for _, other := range extras[:k] {
			if other.Left == p.Left {
				return nil, false // extras could reason among themselves
			}
		}
	}
	return extras, true
}

// deriveContained assembles the result of cq = g ∧ extras from the cached
// result of g: the optimized query and final tag list gain the extras —
// untouched, imperative — at their canonical positions inside the
// query-conjunct region, everything introduced by constraints follows
// unchanged, and trace and dependency set carry over. A nil return means the
// cached result's shape defeated the positional reconstruction (it never
// should; the caller then falls back to cold optimization).
func deriveContained(g *Query, base *Result, cq *Query, extras []Predicate, start time.Time) *Result {
	// Optimized.Selects of the base result is the surviving query
	// conjuncts — a subsequence of g.Selects in its canonical (key-sorted)
	// order — followed by the constraint-introduced restrictions. Cold
	// optimization of cq would emit the extras merged into the query
	// region by key; rebuild exactly that. Every walk below rides on g
	// being canonical: subsequence matching is a two-pointer scan and
	// membership a binary search, so the derivation builds no maps.
	baseSel := base.Optimized.Selects
	split, gi := 0, 0
	for split < len(baseSel) && gi < len(g.Selects) {
		switch k := baseSel[split].Key(); {
		case k == g.Selects[gi].Key():
			split++
			gi++
		case k > g.Selects[gi].Key():
			gi++ // that conjunct of g was eliminated from the plan
		default:
			gi = len(g.Selects) // introduced predicate: region over
		}
	}
	for _, p := range baseSel[split:] {
		if hasKey(g.Selects, p.Key()) {
			return nil // query conjunct after the introduced tail: bail
		}
	}
	selects := make([]Predicate, 0, len(baseSel)+len(extras))
	selects = mergeByKey(selects, baseSel[:split], extras)
	selects = append(selects, baseSel[split:]...)

	optimized := &Query{
		Project:       base.Optimized.Project,
		Joins:         base.Optimized.Joins,
		Selects:       selects,
		Relationships: base.Optimized.Relationships,
		Classes:       base.Optimized.Classes,
	}

	// The final tag list is in column order: g's joins, then g's selective
	// conjuncts, then everything the constraints introduced — each region a
	// subsequence of the corresponding sorted list of g (eliminated-class
	// predicates drop out of the tags). The extras slot into the selective
	// region at their key positions, imperative — they were never touched
	// by any rule.
	n := base.TaggedCount()
	i, ji := 0, 0
	for i < n && ji < len(g.Joins) {
		switch k := base.TaggedAt(i).Pred.Key(); {
		case k == g.Joins[ji].Key():
			i++
			ji++
		case k > g.Joins[ji].Key():
			ji++ // that join's class was eliminated: absent from the tags
		default:
			ji = len(g.Joins) // join region over
		}
	}
	selStart := i
	gi = 0
	for i < n && gi < len(g.Selects) {
		switch k := base.TaggedAt(i).Pred.Key(); {
		case k == g.Selects[gi].Key():
			i++
			gi++
		case k > g.Selects[gi].Key():
			gi++
		default:
			gi = len(g.Selects) // select region over
		}
	}
	selEnd := i
	for j := selEnd; j < n; j++ {
		if k := base.TaggedAt(j).Pred.Key(); hasKey(g.Selects, k) || hasKey(g.Joins, k) {
			return nil // region structure violated: bail
		}
	}
	derived := make([]core.TaggedPredicate, 0, n+len(extras))
	for j := 0; j < selStart; j++ {
		derived = append(derived, base.TaggedAt(j))
	}
	si, xi := selStart, 0
	for si < selEnd && xi < len(extras) {
		if tp := base.TaggedAt(si); tp.Pred.Key() < extras[xi].Key() {
			derived = append(derived, tp)
			si++
		} else {
			derived = append(derived, core.TaggedPredicate{Pred: extras[xi], Tag: TagImperative})
			xi++
		}
	}
	for ; si < selEnd; si++ {
		derived = append(derived, base.TaggedAt(si))
	}
	for ; xi < len(extras); xi++ {
		derived = append(derived, core.TaggedPredicate{Pred: extras[xi], Tag: TagImperative})
	}
	for j := selEnd; j < n; j++ {
		derived = append(derived, base.TaggedAt(j))
	}

	// Predicates counts table columns and each extra would be a fresh
	// one; Fires and RelevantConstraints are identical by construction.
	// Ops stays the generalization's: the derivation performs no table
	// work, so charging the cached table's operation count is the honest
	// figure (a cold run would add the formulation passes' extra state
	// scans).
	stats := base.Stats
	stats.Predicates += len(extras)
	stats.Duration = time.Since(start)
	return core.ComposeResult(cq, optimized, base.EmptyResult, base.Trace, stats, derived, base.Deps())
}

// mergeByKey appends the merge of two key-sorted selective conjunct lists to
// out.
func mergeByKey(out, a, b []Predicate) []Predicate {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Key() < b[j].Key() {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// hasKey reports whether a key-sorted predicate list contains key.
func hasKey(sorted []Predicate, key string) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid].Key() < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo].Key() == key
}
