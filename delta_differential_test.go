package sqo_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sqo"
)

// TestDeltaDifferential is the correctness acceptance bar of the incremental
// catalog-mutation subsystem: the engine state built by ANY randomized
// sequence of UpdateCatalog deltas (adds, removes, replaces, re-adds of
// previously removed rules) must be byte-identical — optimizer output,
// per-query stats, and index shape — to a from-scratch engine built over the
// final catalog. SwapCatalog rounds follow (a suffix removed, rules
// appended, two rules swapped in order, one rule under a new ID, one Doc
// changed): after each, the engine's catalog must equal the target field
// for field and in order, and every query must optimize as a cold build of
// the target does. It sweeps the paper's logistics world plus scaled worlds
// at 10² and 10³ constraints, re-verifying the full workload after every
// round; well over a thousand query comparisons per world set. The mutated
// engine's semantic cache holds the whole workload, so every entry a
// mutation's sweep lets stand is compared with the reference in the next
// round.
func TestDeltaDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep")
	}
	total := 0

	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	cat := sqo.LogisticsConstraints()
	gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: 41})
	workload, err := gen.Workload(240)
	if err != nil {
		t.Fatal(err)
	}
	total += runDeltaDifferential(t, "logistics", db.Schema(), cat, workload, 101)

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
		total += runDeltaDifferential(t, label, sch, scat, qs, int64(7*n))
	}

	if total < 1040 {
		t.Fatalf("delta differential covered only %d queries, want >= 1040", total)
	}
	t.Logf("delta differential: %d query comparisons", total)
}

// runDeltaDifferential starts an engine on a random subset of cat, applies
// several random delta rounds, and after every round compares the mutated
// engine against a from-scratch engine over the engine's own declared
// catalog. The reference runs uncached on each query's canonical form,
// which is what the mutated engine optimizes on a miss. Returns the number
// of per-query comparisons performed.
func runDeltaDifferential(t *testing.T, label string, sch *sqo.Schema, cat *sqo.Catalog, qs []*sqo.Query, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	all := cat.All()

	// Start on a ~60% prefix-order-preserving random subset; the rest form
	// the pool of rules the deltas draw additions from. Removed rules go
	// back to the pool, so re-adding a tombstoned rule (symbol and ordinal
	// reuse) is part of every run.
	var start []*sqo.Constraint
	var pool []*sqo.Constraint
	for _, c := range all {
		if rng.Float64() < 0.6 {
			start = append(start, c)
		} else {
			pool = append(pool, c)
		}
	}
	if len(start) == 0 {
		start, pool = pool, nil
	}
	startCat, err := sqo.NewCatalog(start...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(startCat),
		sqo.WithCache(sqo.CacheConfig{Capacity: 4096, Canonicalize: true, Subsume: true}))
	if err != nil {
		t.Fatal(err)
	}
	canonical := make([]*sqo.Query, len(qs))
	for i, q := range qs {
		canonical[i], _ = sqo.CanonicalizeQuery(q)
	}

	live := append([]*sqo.Constraint(nil), start...)
	checked := 0
	const rounds = 4
	for round := 0; round < rounds; round++ {
		d := sqo.NewCatalogDelta()
		// Removals (up to 2): removed rules rejoin the pool.
		for k := 0; k < 2 && len(live) > 1; k++ {
			i := rng.Intn(len(live))
			d.RemoveConstraints(live[i].ID)
			pool = append(pool, live[i])
			live = append(live[:i], live[i+1:]...)
		}
		// A replace (sometimes): swap a live rule for a pooled one. The
		// replacement lands at the end of the catalog order.
		if len(live) > 1 && len(pool) > 0 && rng.Intn(2) == 0 {
			i, j := rng.Intn(len(live)), rng.Intn(len(pool))
			old, repl := live[i], pool[j]
			d.ReplaceConstraint(old.ID, repl)
			pool[j] = old
			live = append(append(live[:i:i], live[i+1:]...), repl)
		}
		// Additions (up to 3) from the pool.
		for k := 0; k < 3 && len(pool) > 0; k++ {
			j := rng.Intn(len(pool))
			d.AddConstraints(pool[j])
			live = append(live, pool[j])
			pool = append(pool[:j], pool[j+1:]...)
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

		// Reference: a from-scratch engine over the mutated engine's own
		// declared catalog (also exercising lazy materialization).
		ref, err := sqo.NewEngine(sch, sqo.WithCatalog(eng.Catalog()))
		if err != nil {
			t.Fatalf("%s round %d: reference engine: %v", label, round, err)
		}
		if got, want := eng.Stats().Constraints, ref.Stats().Constraints; got != want {
			t.Fatalf("%s round %d: constraint count %d, reference %d", label, round, got, want)
		}
		if got, want := eng.Stats().ConstraintIndex, ref.Stats().ConstraintIndex; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round %d: index stats diverge\npatched: %+v\nscratch: %+v", label, round, got, want)
		}
		for i, q := range qs {
			diffDeltaAs(t, fmt.Sprintf("%s round %d", label, round), eng, q, ref, canonical[i])
			checked++
		}
	}
	return checked + runSwapRounds(t, label, sch, eng, pool, qs, canonical, rng)
}

// runSwapRounds swaps the engine to five targets derived from its current
// catalog and, after each swap, checks the catalog against the target field
// for field and every query against a cold build of the target. Returns
// the number of per-query comparisons performed.
func runSwapRounds(t *testing.T, label string, sch *sqo.Schema, eng *sqo.Engine, pool []*sqo.Constraint, qs, canonical []*sqo.Query, rng *rand.Rand) int {
	t.Helper()
	// nearEnd picks a position among the last few of cs, where a swap
	// changes little enough to be patched.
	nearEnd := func(cs []*sqo.Constraint) int { return len(cs) - 1 - rng.Intn(min(len(cs), 6)) }
	// renamed copies c with a new ID or Doc.
	renamed := func(c *sqo.Constraint, id, doc string) *sqo.Constraint {
		n := sqo.NewConstraint(id, c.Antecedents, c.Links, c.Consequent).WithDoc(doc)
		n.StateDependent = c.StateDependent
		return n
	}
	targets := []struct {
		name string
		make func(cs []*sqo.Constraint) []*sqo.Constraint
	}{
		{"suffix removed", func(cs []*sqo.Constraint) []*sqo.Constraint {
			return cs[:len(cs)-min(len(cs)-1, 1+rng.Intn(3))]
		}},
		{"rules appended", func(cs []*sqo.Constraint) []*sqo.Constraint {
			n := min(len(pool), 3)
			cs, pool = append(cs, pool[:n]...), pool[n:]
			return cs
		}},
		{"two rules swapped", func(cs []*sqo.Constraint) []*sqo.Constraint {
			i, j := nearEnd(cs), len(cs)-1
			if i == j {
				i = max(0, j-1)
			}
			cs[i], cs[j] = cs[j], cs[i]
			return cs
		}},
		{"rule under a new ID", func(cs []*sqo.Constraint) []*sqo.Constraint {
			i := nearEnd(cs)
			cs[i] = renamed(cs[i], cs[i].ID+"-renamed", cs[i].Doc)
			return cs
		}},
		{"Doc changed", func(cs []*sqo.Constraint) []*sqo.Constraint {
			i := nearEnd(cs)
			cs[i] = renamed(cs[i], cs[i].ID, cs[i].Doc+" (revised)")
			return cs
		}},
	}
	checked := 0
	for _, tg := range targets {
		round := fmt.Sprintf("%s swap %q", label, tg.name)
		target, err := sqo.NewCatalog(tg.make(eng.Catalog().All())...)
		if err != nil {
			t.Fatalf("%s: %v", round, err)
		}
		if err := eng.SwapCatalog(target); err != nil {
			t.Fatalf("%s: %v", round, err)
		}
		got, want := eng.Catalog().All(), target.All()
		if len(got) != len(want) {
			t.Fatalf("%s: catalog holds %d constraints, target %d", round, len(got), len(want))
		}
		for i := range want {
			if !sameFields(got[i], want[i]) {
				t.Fatalf("%s: constraint %d is %v (doc %q), target %v (doc %q)", round, i, got[i], got[i].Doc, want[i], want[i].Doc)
			}
		}
		ref, err := sqo.NewEngine(sch, sqo.WithCatalog(target))
		if err != nil {
			t.Fatalf("%s: reference engine: %v", round, err)
		}
		for i, q := range qs {
			diffDeltaAs(t, round, eng, q, ref, canonical[i])
			checked++
		}
	}
	return checked
}

// sameFields reports whether a and b agree in every exported field,
// predicates compared by key.
func sameFields(a, b *sqo.Constraint) bool {
	keys := func(ps []sqo.Predicate) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.Key()
		}
		return out
	}
	return a.ID == b.ID && a.Doc == b.Doc && a.StateDependent == b.StateDependent &&
		reflect.DeepEqual(keys(a.Antecedents), keys(b.Antecedents)) &&
		reflect.DeepEqual(a.Links, b.Links) && a.Consequent.Key() == b.Consequent.Key()
}

// diffDelta optimizes one query through the delta-built and the from-scratch
// engine and fails on any divergence, down to fire counts (catalog order is
// preserved by construction, so even order-sensitive statistics must agree).
func diffDelta(t *testing.T, label string, mutated, scratch *sqo.Engine, q *sqo.Query) {
	t.Helper()
	diffDeltaAs(t, label, mutated, q, scratch, q)
}

// diffDeltaAs is diffDelta with the from-scratch engine optimizing ref in
// place of q.
func diffDeltaAs(t *testing.T, label string, mutated *sqo.Engine, q *sqo.Query, scratch *sqo.Engine, ref *sqo.Query) {
	t.Helper()
	ctx := context.Background()
	a, err := mutated.Optimize(ctx, q)
	if err != nil {
		t.Fatalf("%s: delta-built optimize: %v\n%s", label, err, q)
	}
	b, err := scratch.Optimize(ctx, ref)
	if err != nil {
		t.Fatalf("%s: from-scratch optimize: %v\n%s", label, err, ref)
	}
	if got, want := a.Optimized.String(), b.Optimized.String(); got != want {
		t.Fatalf("%s: outputs diverge\nquery:   %s\npatched: %s\nscratch: %s", label, q, got, want)
	}
	if a.EmptyResult != b.EmptyResult {
		t.Fatalf("%s: EmptyResult diverges for %s", label, q)
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatalf("%s: traces diverge for %s\npatched: %v\nscratch: %v", label, q, a.Trace, b.Trace)
	}
	if a.Stats.Fires != b.Stats.Fires || a.Stats.RelevantConstraints != b.Stats.RelevantConstraints {
		t.Fatalf("%s: stats diverge for %s: fires %d/%d relevant %d/%d",
			label, q, a.Stats.Fires, b.Stats.Fires,
			a.Stats.RelevantConstraints, b.Stats.RelevantConstraints)
	}
	if !reflect.DeepEqual(a.FinalTags(), b.FinalTags()) {
		t.Fatalf("%s: final tags diverge for %s\npatched: %v\nscratch: %v",
			label, q, a.FinalTags(), b.FinalTags())
	}
}
