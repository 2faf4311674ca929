package core

import (
	"sqo/internal/predicate"
	"sqo/internal/query"
)

// predState tracks one present predicate through the formulation passes.
type predState struct {
	id      int32
	pred    predicate.Predicate
	tag     Tag
	inQuery bool
	dropped bool // removed by class elimination
	pinned  bool // witness of a class elimination; must be retained
}

// formScratch holds the reusable buffers of the formulation step. States are
// stored by value and addressed by index; stateOf maps a column to its state
// index (or -1), replacing the map the pre-interning code used.
type formScratch struct {
	states   []predState
	stateOf  []int32 // per column: index into states, or -1
	optional []int32 // indices into states of the choice-set optionals
	kept     []bool  // parallel to optional
	base     []int32 // elimination-candidate chase base (columns)
	targets  []int32 // indices into states of the victim's original predicates
	supFlag  []bool  // per state index: pinned-support marker
	supList  []int32 // support state indices, insertion-ordered
	retained []int32 // repair-loop chase base (columns)
	touching []string
}

// formulate implements the paper's Query Formulation step (Section 3.4):
// derive the final tag of every predicate from the table, apply class
// elimination if desirable, run cost-benefit analysis on optional predicates,
// and emit a query containing only the imperative and retained optional
// predicates. The paper's order is followed — class elimination precedes the
// per-predicate profitability pass, which is why the worked example can drop
// supplier.name = "SFI" without ever costing it.
//
// Two soundness guards sharpen the paper's description (see chase.go):
// class elimination must prove every original predicate on the victim
// derivable from retained predicates (and pins those witnesses), and a final
// repair pass restores any original predicate the retained set cannot
// derive.
//
// Everything the Result keeps — trace, tagged predicates, the formulated
// query — is copied out of the scratch buffers fresh, so pooled tables can
// be reused immediately.
func (o *Optimizer) formulate(t *table) *Result {
	res := &Result{}
	fs := &t.form

	m := t.m()
	fs.states = fs.states[:0]
	if cap(fs.stateOf) < m {
		fs.stateOf = make([]int32, m)
	}
	fs.stateOf = fs.stateOf[:m]
	for id := 0; id < m; id++ {
		fs.stateOf[id] = -1
		if !t.present[id] {
			continue
		}
		fs.stateOf[id] = int32(len(fs.states))
		fs.states = append(fs.states, predState{
			id:      int32(id),
			pred:    t.preds[id],
			tag:     t.tags[id],
			inQuery: t.inQuery[id],
		})
	}
	states := fs.states

	// Contradiction detection (extension): every present predicate is
	// implied by the original query, so any contradicting pair proves the
	// result empty in all legal database states.
	if o.opts.DetectContradictions {
	outer:
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				t.ops++
				if states[i].pred.Contradicts(states[j].pred) {
					res.EmptyResult = true
					break outer
				}
			}
		}
	}

	// --- class elimination (King's rule, chase-checked) -----------------
	classes := append([]string(nil), t.q.Classes...)
	rels := append([]string(nil), t.q.Relationships...)
	if o.opts.rules().Has(RuleClassElimination) {
		for {
			victim, viaRel := o.eliminationCandidate(t, classes, rels)
			if victim == "" {
				break
			}
			classes = remove(classes, victim)
			rels = remove(rels, viaRel)
			for i := range states {
				if !states[i].dropped && states[i].pred.References(victim) {
					states[i].dropped = true
				}
			}
			t.trace = append(t.trace, Transformation{
				Kind:  TransformClassElimination,
				Class: victim,
			})
		}
	}

	// --- cost-benefit analysis on optional predicates ------------------
	// Build the working query with the imperative predicates only, then
	// decide which optionals to keep: exact subset selection when the
	// cost model can price whole queries, greedy fixpoint otherwise.
	nJoins := 0
	for i := range states {
		if states[i].pred.IsJoin() {
			nJoins++
		}
	}
	working := &query.Query{
		Project:       append([]predicate.AttrRef(nil), t.q.Project...),
		Joins:         make([]predicate.Predicate, 0, nJoins),
		Selects:       make([]predicate.Predicate, 0, len(states)-nJoins),
		Relationships: rels,
		Classes:       classes,
	}
	for i := range states {
		if states[i].dropped || states[i].tag != TagImperative {
			continue
		}
		working = appendPred(working, states[i].pred)
	}
	fs.optional = fs.optional[:0]
	for i := range states {
		if states[i].dropped || states[i].tag != TagOptional {
			continue
		}
		if states[i].pinned {
			// Elimination witnesses are kept unconditionally; they
			// join the working set rather than the choice set.
			working = appendPred(working, states[i].pred)
			continue
		}
		fs.optional = append(fs.optional, int32(i))
	}
	kept := o.selectOptionals(t, working, fs.optional)
	for oi, si := range fs.optional {
		if kept[oi] {
			continue
		}
		// "Those optional predicates that are not found to be
		// profitable would be re-classified as redundant."
		states[si].tag = TagRedundant
		t.trace = append(t.trace, Transformation{
			Kind:   TransformDiscardOptional,
			Pred:   states[si].pred,
			NewTag: TagRedundant,
		})
	}

	// --- soundness repair ------------------------------------------------
	// Every original predicate still on a surviving class must be
	// derivable from what the formulated query retains; otherwise it is
	// restored as imperative. (Mutually-implying constraints can tag two
	// predicates optional through each other, and the cost pass might
	// drop both.)
	for {
		fs.retained = fs.retained[:0]
		for i := range states {
			if !states[i].dropped && states[i].tag != TagRedundant {
				fs.retained = append(fs.retained, states[i].id)
			}
		}
		ch := newChase(t, fs.retained)
		promoted := false
		for i := range states {
			if states[i].dropped || !states[i].inQuery || states[i].tag != TagRedundant {
				continue
			}
			if !ch.derivable(states[i].id) {
				states[i].tag = TagImperative
				t.trace = append(t.trace, Transformation{
					Kind:   TransformRestoreSupport,
					Pred:   states[i].pred,
					NewTag: TagImperative,
				})
				promoted = true
				break // rebuild the chase with the new support
			}
		}
		if !promoted {
			break
		}
	}

	// --- subsumption among retained predicates -------------------------
	// A retained predicate implied by another retained predicate filters
	// nothing further; drop it (soundness: every present predicate is
	// implied by the original query, and the implying predicate stays).
	if !o.opts.DisableSubsumption {
		isRetained := func(st *predState) bool {
			return !st.dropped && st.tag != TagRedundant
		}
		for w := range states {
			weak := &states[w]
			if !isRetained(weak) {
				continue
			}
			for s := range states {
				strong := &states[s]
				if s == w || !isRetained(strong) {
					continue
				}
				t.ops++
				if strong.pred.Implies(weak.pred) {
					weak.dropped = true
					t.trace = append(t.trace, Transformation{
						Kind: TransformSubsumption,
						Pred: weak.pred,
					})
					break
				}
			}
		}
	}

	// --- emit -----------------------------------------------------------
	out := &query.Query{
		Project:       append([]predicate.AttrRef(nil), t.q.Project...),
		Joins:         make([]predicate.Predicate, 0, nJoins),
		Selects:       make([]predicate.Predicate, 0, len(states)-nJoins),
		Relationships: rels,
		Classes:       classes,
	}
	res.tagged = make([]TaggedPredicate, 0, len(states))
	for i := range states {
		res.tagged = append(res.tagged, TaggedPredicate{Pred: states[i].pred, Tag: states[i].tag})
		if states[i].dropped || states[i].tag == TagRedundant {
			continue
		}
		out = appendPred(out, states[i].pred)
	}
	res.Optimized = out
	if len(t.trace) > 0 {
		res.Trace = append([]Transformation(nil), t.trace...)
	}
	if t.opts.RecordDeps {
		res.deps = make([]int32, len(t.deps))
		copy(res.deps, t.deps)
	}
	return res
}

// maxSubsetSearch caps the exact optional-subset search: up to 2^10 whole-
// query estimates. Relevant constraint sets rarely yield more optionals.
const maxSubsetSearch = 10

// selectOptionals decides which optional predicates to retain (optionals are
// state indices into the formulation scratch). With a QueryEstimator cost
// model and few enough optionals it minimizes the estimated cost over all
// subsets; otherwise it runs the per-predicate profitable(p) test to a
// fixpoint (a predicate can become profitable once another kept predicate
// changes the plan). The returned slice is scratch, parallel to optionals.
func (o *Optimizer) selectOptionals(t *table, working *query.Query, optionals []int32) []bool {
	fs := &t.form
	if cap(fs.kept) < len(optionals) {
		fs.kept = make([]bool, len(optionals))
	}
	fs.kept = fs.kept[:len(optionals)]
	clear(fs.kept)
	kept := fs.kept
	if len(optionals) == 0 {
		return kept
	}
	states := fs.states
	if est, ok := o.opts.Cost.(QueryEstimator); ok && len(optionals) <= maxSubsetSearch {
		bestMask, bestCost := 0, est.EstimateQuery(working)
		for mask := 1; mask < 1<<len(optionals); mask++ {
			cand := working.Clone()
			for i := range optionals {
				if mask&(1<<i) != 0 {
					cand = appendPred(cand, states[optionals[i]].pred)
				}
			}
			if c := est.EstimateQuery(cand); c < bestCost {
				bestMask, bestCost = mask, c
			}
		}
		for i := range optionals {
			if bestMask&(1<<i) != 0 {
				kept[i] = true
				working = appendPred(working, states[optionals[i]].pred)
			}
		}
		return kept
	}
	// Greedy fixpoint on the per-predicate test.
	for changed := true; changed; {
		changed = false
		for i, si := range optionals {
			if kept[i] {
				continue
			}
			if o.opts.Cost.Profitable(working, states[si].pred) {
				kept[i] = true
				working = appendPred(working, states[si].pred)
				changed = true
			}
		}
	}
	return kept
}

// eliminationCandidate finds one class that can be dropped: not projected,
// dangling on exactly one relationship, reached from the retained side by a
// total single-valued link, judged beneficial by the cost model, and — the
// soundness core — every original predicate on it must be derivable from the
// present predicates of the other classes. The witnesses of those
// derivations are pinned (promoted to imperative) so later passes cannot
// discard them. It returns the class and its relationship, or "" when none
// qualifies.
func (o *Optimizer) eliminationCandidate(t *table, classes, rels []string) (string, string) {
	if len(classes) <= 1 {
		return "", ""
	}
	fs := &t.form
	states := fs.states
	for _, class := range classes {
		if t.q.ProjectsFrom(class) {
			continue
		}
		// Dangling: exactly one relationship in the query touches it.
		fs.touching = fs.touching[:0]
		for _, rn := range rels {
			if r := o.schema.Relationship(rn); r != nil && r.Involves(class) {
				fs.touching = append(fs.touching, rn)
			}
		}
		if len(fs.touching) != 1 {
			continue
		}
		via := fs.touching[0]
		r := o.schema.Relationship(via)
		other, _ := r.Other(class)
		// Safety (DESIGN.md deviation #4): every retained instance
		// must link to exactly one instance of the victim, so removing
		// the join changes neither membership nor multiplicity.
		if !r.SingleValuedFrom(other) || !r.TotalFrom(other) {
			continue
		}

		// Derivability: original predicates on the victim must follow
		// from predicates that survive the elimination.
		fs.base = fs.base[:0]
		fs.targets = fs.targets[:0]
		for i := range states {
			if states[i].dropped {
				continue
			}
			if states[i].pred.References(class) {
				if states[i].inQuery {
					fs.targets = append(fs.targets, int32(i))
				}
				continue
			}
			fs.base = append(fs.base, states[i].id)
		}
		ch := newChase(t, fs.base)
		ok := true
		fs.supFlag = grow(fs.supFlag, len(states))
		fs.supList = fs.supList[:0]
		for _, ti := range fs.targets {
			if !ch.derivable(states[ti].id) {
				ok = false
				break
			}
			for _, s := range ch.supports(states[ti].id) {
				if si := fs.stateOf[s]; si >= 0 && !fs.supFlag[si] {
					fs.supFlag[si] = true
					fs.supList = append(fs.supList, si)
				}
			}
		}
		if !ok {
			continue
		}
		if !o.opts.Cost.ClassEliminationBeneficial(t.q, class) {
			continue
		}
		// Pin the witnesses: they keep their tags (the paper's worked
		// example reports cargo.desc = "frozen food" as optional) but
		// can no longer be discarded.
		for _, si := range fs.supList {
			st := &states[si]
			if st.dropped || st.pinned || st.tag == TagImperative {
				continue
			}
			st.pinned = true
			if st.tag == TagRedundant {
				// A redundant witness would not survive emission;
				// it must come back as a real predicate.
				st.tag = TagOptional
			}
			t.trace = append(t.trace, Transformation{
				Kind:   TransformRestoreSupport,
				Pred:   st.pred,
				NewTag: st.tag,
			})
		}
		return class, via
	}
	return "", ""
}

func appendPred(q *query.Query, p predicate.Predicate) *query.Query {
	if p.IsJoin() {
		q.Joins = append(q.Joins, p)
	} else {
		q.Selects = append(q.Selects, p)
	}
	return q
}

func remove(list []string, item string) []string {
	out := list[:0:0]
	for _, s := range list {
		if s != item {
			out = append(out, s)
		}
	}
	return out
}
