package sqo_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sqo"
)

// TestSubsumeDifferential is the correctness acceptance bar of the
// containment-aware cache: every result the engine serves from the cache —
// exact, canonical (permuted / duplicated conjuncts collapsed to one
// fingerprint) or subsumption-derived (cached generalization plus residual
// conjuncts) — must be byte-identical to a cold optimization of the same
// canonical query, down to tags, trace, dependency set and per-query stats.
// (Stats.Ops and durations are exempt by design: a derived result keeps the
// generalization's table-operation count, since the derivation performs no
// table work.) It sweeps the paper's logistics world plus scaled worlds at
// 10² and 10³ constraints, re-verifying across incremental catalog updates so
// cache survivors are held to the same bar in the new epoch; well
// over a thousand cache-served comparisons in total.
func TestSubsumeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep")
	}
	var canonTotal, subTotal int64

	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	cat := sqo.LogisticsConstraints()
	gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: 43})
	workload, err := gen.Workload(240)
	if err != nil {
		t.Fatal(err)
	}
	ch, sh := runSubsumeDifferential(t, "logistics", db.Schema(), cat, workload, 211)
	canonTotal += ch
	subTotal += sh

	for _, n := range []int{100, 1000} {
		label := fmt.Sprintf("scaled-%d", n)
		sch, scat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: n, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		qs, err := sqo.ScaledWorkload(sch, scat, 400, 17)
		if err != nil {
			t.Fatal(err)
		}
		ch, sh := runSubsumeDifferential(t, label, sch, scat, qs, int64(31*n))
		canonTotal += ch
		subTotal += sh
	}

	if canonTotal+subTotal < 1000 {
		t.Fatalf("only %d canonical + %d subsumption hits verified, want >= 1000 combined",
			canonTotal, subTotal)
	}
	if subTotal == 0 {
		t.Fatal("no subsumption hits verified across any world")
	}
	t.Logf("subsume differential: %d canonical hits, %d subsumption hits verified", canonTotal, subTotal)
}

// runSubsumeDifferential drives one world: a subsuming engine against a cold
// (uncached) reference engine over the same catalog, across the original
// catalog plus two incremental update epochs (a removal, then the re-add).
// Returns the world's canonical- and subsumption-hit counts.
func runSubsumeDifferential(t *testing.T, label string, sch *sqo.Schema, cat *sqo.Catalog, qs []*sqo.Query, seed int64) (canonHits, subHits int64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))

	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat),
		sqo.WithCache(sqo.CacheConfig{Capacity: 4096, Subsume: true}))
	if err != nil {
		t.Fatal(err)
	}

	var removed *sqo.Constraint
	for round := 0; round < 3; round++ {
		// Rounds 1 and 2 bump the epoch through the incremental path:
		// remove one live constraint, then add it back — cache survivors
		// must keep serving sound answers.
		if round > 0 {
			d := sqo.NewCatalogDelta()
			if round == 1 {
				live := eng.Catalog().All()
				if len(live) > 1 {
					removed = live[rng.Intn(len(live))]
					d.RemoveConstraints(removed.ID)
				}
			} else if removed != nil {
				d.AddConstraints(removed)
			}
			if d.Empty() {
				continue
			}
			rep, err := eng.UpdateCatalog(d)
			if err != nil {
				t.Fatalf("%s round %d: %v", label, round, err)
			}
			if !rep.Incremental {
				t.Fatalf("%s round %d: expected the incremental path, got %+v", label, round, rep)
			}
		}

		// Cold reference over the engine's current declared catalog; the
		// mention set gates which extra conjuncts are provably inert under
		// *this* epoch's constraints.
		view := eng.Catalog()
		// RecordDeps so the cold results carry dependency sets to compare
		// against (the cached engine records them for invalidation anyway).
		ref, err := sqo.NewEngine(sch, sqo.WithCatalog(view),
			sqo.WithOptimizerOptions(sqo.Options{RecordDeps: true}))
		if err != nil {
			t.Fatalf("%s round %d: reference engine: %v", label, round, err)
		}
		mentioned := mentionedAttrs(view)

		for qi, q := range qs {
			rlabel := fmt.Sprintf("%s round %d q%d", label, round, qi)

			// Prime: the canonical form of q lands in the cache (cold on
			// first sight, a hit on repeats and across surviving epochs).
			base, err := eng.Optimize(ctx, q)
			if err != nil {
				t.Fatalf("%s: prime: %v\n%s", rlabel, err, q)
			}

			// Canonical variant: permuted lists, one duplicated conjunct.
			// Must be served from the cache and match cold optimization of
			// the canonical query.
			v := permuteDup(q, rng)
			before := eng.Stats().Cache
			got, err := eng.Optimize(ctx, v)
			if err != nil {
				t.Fatalf("%s: canonical variant: %v\n%s", rlabel, err, v)
			}
			after := eng.Stats().Cache
			if after.Hits() != before.Hits()+1 {
				t.Fatalf("%s: canonical variant missed the cache (%+v -> %+v)\n%s",
					rlabel, before, after, v)
			}
			cq, _ := sqo.CanonicalizeQuery(v)
			want, err := ref.Optimize(ctx, cq)
			if err != nil {
				t.Fatalf("%s: cold reference: %v\n%s", rlabel, err, cq)
			}
			diffSubsume(t, rlabel+" canonical", got, want, cq, round == 0)

			// Subsumption variant: the query plus one provably inert extra
			// conjunct. Usually served from the cache (derived or, on
			// repeats, exact); when the envelope's generalization bucket
			// outgrows the bounded probe the engine may legitimately fall
			// back to cold optimization — either way the answer must match
			// cold optimization byte for byte.
			if extra, ok := inertExtra(sch, mentioned, q, base); ok {
				vs := permuteDup(q, rng)
				vs.Selects = append(vs.Selects, extra)
				got, err := eng.Optimize(ctx, vs)
				if err != nil {
					t.Fatalf("%s: subsumption variant: %v\n%s", rlabel, err, vs)
				}
				cqs, _ := sqo.CanonicalizeQuery(vs)
				want, err := ref.Optimize(ctx, cqs)
				if err != nil {
					t.Fatalf("%s: cold reference: %v\n%s", rlabel, err, cqs)
				}
				diffSubsume(t, rlabel+" subsumed", got, want, cqs, round == 0)
			}

			// Adversarial variant (sampled): an extra conjunct on an
			// attribute some constraint mentions is outside the provable
			// class — the engine must fall back to cold optimization, never
			// serve it by derivation, and still produce the cold answer.
			if extra, ok := riskyExtra(sch, mentioned, q, base); ok && rng.Intn(4) == 0 {
				va := cloneQuery(q)
				va.Selects = append(va.Selects, extra)
				before := eng.Stats().Cache
				got, err := eng.Optimize(ctx, va)
				if err != nil {
					t.Fatalf("%s: adversarial variant: %v\n%s", rlabel, err, va)
				}
				after := eng.Stats().Cache
				if after.SubsumptionHits != before.SubsumptionHits {
					t.Fatalf("%s: constraint-mentioned extra served by subsumption\n%s", rlabel, va)
				}
				cqa, _ := sqo.CanonicalizeQuery(va)
				want, err := ref.Optimize(ctx, cqa)
				if err != nil {
					t.Fatalf("%s: cold reference: %v\n%s", rlabel, err, cqa)
				}
				diffSubsume(t, rlabel+" adversarial", got, want, cqa, round == 0)
			}
		}
	}

	st := eng.Stats().Cache
	if st.CanonicalHits == 0 {
		t.Fatalf("%s: no canonical hits recorded: %+v", label, st)
	}
	if st.SubsumptionHits == 0 {
		t.Fatalf("%s: no subsumption hits recorded: %+v", label, st)
	}
	if st.SubsumptionHits > 0 && st.ResidualPredicates < st.SubsumptionHits {
		t.Fatalf("%s: residual accounting short: %+v", label, st)
	}
	t.Logf("%s: cache %+v", label, st)
	return st.CanonicalHits, st.SubsumptionHits
}

// diffSubsume fails on any observable divergence between a cache-served and a
// cold result for the same canonical query — everything except Ops and
// durations, which a derivation intentionally does not replicate.
// Dependency sets are compared only when sameOrdinals is true: deps live in
// the ordinal space of the catalog generation that produced the result, and
// after an incremental update a cache survivor legitimately keeps its old
// generation's ordinals while a from-scratch engine assigns fresh dense ones.
func diffSubsume(t *testing.T, label string, got, want *sqo.Result, cq *sqo.Query, sameOrdinals bool) {
	t.Helper()
	if g, w := got.Original.String(), cq.String(); g != w {
		t.Fatalf("%s: served Original is not the canonical query\nserved: %s\ncanon:  %s", label, g, w)
	}
	if g, w := got.Optimized.String(), want.Optimized.String(); g != w {
		t.Fatalf("%s: outputs diverge\nquery:  %s\nserved: %s\ncold:   %s", label, cq, g, w)
	}
	if got.EmptyResult != want.EmptyResult {
		t.Fatalf("%s: EmptyResult diverges for %s", label, cq)
	}
	if !reflect.DeepEqual(got.TaggedPredicates(), want.TaggedPredicates()) {
		t.Fatalf("%s: tagged predicates diverge for %s\nserved: %v\ncold:   %v",
			label, cq, got.TaggedPredicates(), want.TaggedPredicates())
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Fatalf("%s: traces diverge for %s\nserved: %v\ncold:   %v", label, cq, got.Trace, want.Trace)
	}
	if sameOrdinals && !reflect.DeepEqual(got.Deps(), want.Deps()) {
		t.Fatalf("%s: dependency sets diverge for %s\nserved: %v\ncold:   %v",
			label, cq, got.Deps(), want.Deps())
	}
	if got.Stats.Fires != want.Stats.Fires ||
		got.Stats.RelevantConstraints != want.Stats.RelevantConstraints ||
		got.Stats.Predicates != want.Stats.Predicates {
		t.Fatalf("%s: stats diverge for %s: fires %d/%d relevant %d/%d predicates %d/%d",
			label, cq, got.Stats.Fires, want.Stats.Fires,
			got.Stats.RelevantConstraints, want.Stats.RelevantConstraints,
			got.Stats.Predicates, want.Stats.Predicates)
	}
}

// mentionedAttrs collects every attribute any catalog constraint mentions —
// antecedents and consequent, both sides of joins. An extra conjunct on any
// other attribute can never interact with the transformation table.
func mentionedAttrs(cat *sqo.Catalog) map[sqo.AttrRef]struct{} {
	m := make(map[sqo.AttrRef]struct{})
	note := func(p sqo.Predicate) {
		m[p.Left] = struct{}{}
		if p.IsJoin() {
			m[p.RightAttr] = struct{}{}
		}
	}
	for _, c := range cat.All() {
		for _, p := range c.Antecedents {
			note(p)
		}
		note(c.Consequent)
	}
	return m
}

// inertExtra finds a selective conjunct provably inert for q under the
// current catalog: its attribute is mentioned by no constraint and no
// predicate of q, and its class survived q's optimization.
func inertExtra(sch *sqo.Schema, mentioned map[sqo.AttrRef]struct{}, q *sqo.Query, base *sqo.Result) (sqo.Predicate, bool) {
	for _, class := range q.Classes {
		if !base.Optimized.HasClass(class) {
			continue
		}
		for _, at := range sch.EffectiveAttributes(class) {
			ref := sqo.AttrRef{Class: class, Attr: at.Name}
			if _, hit := mentioned[ref]; hit {
				continue
			}
			if queryUses(q, ref) {
				continue
			}
			v, ok := probeValue(at.Type)
			if !ok {
				continue
			}
			return sqo.Sel(class, at.Name, sqo.OpEQ, v), true
		}
	}
	return sqo.Predicate{}, false
}

// riskyExtra finds a selective conjunct on a constraint-mentioned attribute
// of one of q's surviving classes that q itself does not use — a valid query
// the subsumption path must refuse to derive.
func riskyExtra(sch *sqo.Schema, mentioned map[sqo.AttrRef]struct{}, q *sqo.Query, base *sqo.Result) (sqo.Predicate, bool) {
	for ref := range mentioned {
		if !base.Optimized.HasClass(ref.Class) || !q.HasClass(ref.Class) {
			continue
		}
		if queryUses(q, ref) {
			continue
		}
		at, ok := sch.Attr(ref.Class, ref.Attr)
		if !ok {
			continue // consequent on a class the constraint reaches via a link
		}
		v, ok := probeValue(at.Type)
		if !ok {
			continue
		}
		p := sqo.Sel(ref.Class, ref.Attr, sqo.OpEQ, v)
		if p.Validate(sch) != nil {
			continue
		}
		return p, true
	}
	return sqo.Predicate{}, false
}

// queryUses reports whether any predicate of q touches ref.
func queryUses(q *sqo.Query, ref sqo.AttrRef) bool {
	for _, p := range q.Selects {
		if p.Left == ref {
			return true
		}
	}
	for _, p := range q.Joins {
		if p.Left == ref || p.RightAttr == ref {
			return true
		}
	}
	return false
}

// probeValue builds a constant of the attribute's type.
func probeValue(k sqo.Kind) (sqo.Value, bool) {
	switch k {
	case sqo.KindInt:
		return sqo.IntValue(7), true
	case sqo.KindFloat:
		return sqo.FloatValue(7.5), true
	case sqo.KindString:
		return sqo.StringValue("zz-probe"), true
	case sqo.KindBool:
		return sqo.BoolValue(true), true
	default:
		return sqo.Value{}, false
	}
}

// cloneQuery deep-copies a query's five lists.
func cloneQuery(q *sqo.Query) *sqo.Query {
	return &sqo.Query{
		Project:       append([]sqo.AttrRef(nil), q.Project...),
		Joins:         append([]sqo.Predicate(nil), q.Joins...),
		Selects:       append([]sqo.Predicate(nil), q.Selects...),
		Relationships: append([]string(nil), q.Relationships...),
		Classes:       append([]string(nil), q.Classes...),
	}
}

// permuteDup clones q, shuffles every list, and duplicates one conjunct —
// a syntactic near-duplicate that canonicalization must collapse onto q's
// cache slot.
func permuteDup(q *sqo.Query, rng *rand.Rand) *sqo.Query {
	v := cloneQuery(q)
	if len(v.Selects) > 0 {
		v.Selects = append(v.Selects, v.Selects[rng.Intn(len(v.Selects))])
	} else if len(v.Joins) > 0 {
		v.Joins = append(v.Joins, v.Joins[rng.Intn(len(v.Joins))])
	}
	rng.Shuffle(len(v.Project), func(i, j int) { v.Project[i], v.Project[j] = v.Project[j], v.Project[i] })
	rng.Shuffle(len(v.Joins), func(i, j int) { v.Joins[i], v.Joins[j] = v.Joins[j], v.Joins[i] })
	rng.Shuffle(len(v.Selects), func(i, j int) { v.Selects[i], v.Selects[j] = v.Selects[j], v.Selects[i] })
	rng.Shuffle(len(v.Relationships), func(i, j int) {
		v.Relationships[i], v.Relationships[j] = v.Relationships[j], v.Relationships[i]
	})
	rng.Shuffle(len(v.Classes), func(i, j int) { v.Classes[i], v.Classes[j] = v.Classes[j], v.Classes[i] })
	return v
}
