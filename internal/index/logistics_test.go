package index_test

// External tests pairing the index with the paper's logistics catalog (the
// datagen package imports index for its scaled workload generator, so these
// live outside package index to avoid an import cycle).

import (
	"math/rand"
	"testing"

	"sqo/internal/datagen"
	"sqo/internal/index"
	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/value"
)

// TestRelevantMatchesScanLogistics: on the paper's catalog, the index returns
// exactly the scan's relevant set, in the same order, for a spread of query
// shapes.
func TestRelevantMatchesScanLogistics(t *testing.T) {
	cat := datagen.Constraints()
	ix := index.New(cat)

	queries := []*query.Query{
		query.New("vehicle", "cargo").AddRelationship("collects"),
		query.New("supplier", "cargo", "vehicle").AddRelationship("supplies").AddRelationship("collects"),
		query.New("driver").AddSelect(predicate.Eq("driver", "rank", value.String("supervisor"))),
		query.New("driver", "vehicle", "engine").AddRelationship("drives").AddRelationship("engComp"),
		query.New("supplier"),
		query.New("cargo", "driver").AddRelationship("inspects"),
	}
	for _, q := range queries {
		want := cat.RelevantTo(q)
		got := ix.Relevant(q)
		if len(got) != len(want) {
			t.Fatalf("%v: index returned %d constraints, scan %d", q.Classes, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: position %d: index %s, scan %s", q.Classes, i, got[i].ID, want[i].ID)
			}
		}
	}
}

// TestAntecedentMatchesSuperset: every constraint whose antecedent is implied
// by the probe predicate must be among the matches (the closure relies on it).
func TestAntecedentMatchesSuperset(t *testing.T) {
	cat := datagen.Constraints()
	ix := index.New(cat)
	r := rand.New(rand.NewSource(17))
	ops := []predicate.Op{predicate.EQ, predicate.NE, predicate.LT, predicate.LE, predicate.GT, predicate.GE}

	var probes []predicate.Predicate
	for _, c := range cat.All() {
		probes = append(probes, c.Consequent)
		probes = append(probes, c.Antecedents...)
	}
	for i := 0; i < 200; i++ {
		probes = append(probes, predicate.Sel("engine", "capacity", ops[r.Intn(len(ops))], value.Int(int64(r.Intn(800)))))
	}

	for _, p := range probes {
		matched := map[[2]int]bool{}
		for _, m := range ix.AntecedentMatches(p) {
			matched[[2]int{m.Ordinal, m.AntPos}] = true
		}
		for ord, c := range cat.All() {
			for pos, a := range c.Antecedents {
				if p.Implies(a) && !matched[[2]int{ord, pos}] {
					t.Fatalf("probe %s implies antecedent %s of %s but the index missed it", p, a, c.ID)
				}
			}
		}
	}
}
