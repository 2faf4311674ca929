package index

import (
	"fmt"
	"math/rand"
	"testing"

	"sqo/internal/constraint"
	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/value"
)

// TestRelevantMatchesScanRandom sweeps randomized catalogs over a synthetic
// schema: same set, same order, for random query class/link combinations.
func TestRelevantMatchesScanRandom(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	classes := []string{"k0", "k1", "k2", "k3", "k4"}
	links := []string{"r0", "r1", "r2", "r3"}

	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(60)
		var cs []*constraint.Constraint
		for j := 0; j < n; j++ {
			ci := r.Intn(len(classes))
			ants := []predicate.Predicate{
				predicate.Sel(classes[ci], "a", predicate.GE, value.Int(int64(r.Intn(50)))),
			}
			var lnk []string
			cons := predicate.Sel(classes[ci], "b", predicate.LE, value.Int(int64(100+j)))
			if ci+1 < len(classes) && r.Intn(2) == 0 {
				cons = predicate.Sel(classes[ci+1], "b", predicate.LE, value.Int(int64(100+j)))
				lnk = []string{links[ci]}
			}
			cs = append(cs, constraint.New(fmt.Sprintf("t%03d", j), ants, lnk, cons))
		}
		cat := constraint.MustCatalog(cs...)
		ix := New(cat)

		for probe := 0; probe < 20; probe++ {
			lo := r.Intn(len(classes))
			hi := lo + r.Intn(len(classes)-lo)
			q := query.New(classes[lo : hi+1]...)
			for i := lo; i < hi; i++ {
				q.AddRelationship(links[i])
			}
			want := cat.RelevantTo(q)
			got := ix.Relevant(q)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %v: index %d vs scan %d", trial, q.Classes, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: order diverged at %d: %s vs %s", trial, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

// TestRarestClassAssignment: the home class of every constraint is the least
// referenced of its classes, so heavy classes don't accumulate postings from
// constraints that also touch rare ones.
func TestRarestClassAssignment(t *testing.T) {
	// Three constraints touch "hot"; one of them also touches "cold".
	hotA := constraint.New("h1", nil, nil, predicate.Eq("hot", "a", value.Int(1)))
	hotB := constraint.New("h2", nil, nil, predicate.Eq("hot", "a", value.Int(2)))
	mixed := constraint.New("m1",
		[]predicate.Predicate{predicate.Eq("hot", "a", value.Int(3))}, nil,
		predicate.Eq("cold", "b", value.Int(4)))
	ix := New(constraint.MustCatalog(hotA, hotB, mixed))

	posting := func(class string) int {
		id, ok := ix.syms.ClassID(class)
		if !ok {
			t.Fatalf("class %q not interned", class)
		}
		return len(ix.byClass.At(int(id)))
	}
	if got := posting("hot"); got != 2 {
		t.Errorf(`"hot" posting = %d entries, want 2`, got)
	}
	if got := posting("cold"); got != 1 {
		t.Errorf(`"cold" posting = %d entries, want 1 (mixed constraint homes at its rarest class)`, got)
	}
	st := ix.Stats()
	if st.Constraints != 3 || st.ClassBuckets != 2 || st.MaxClassPosting != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestSignatureKeysJoinAndSel: signatures separate selections from joins and
// respect join canonicalization.
func TestSignatureKeysJoinAndSel(t *testing.T) {
	sel := predicate.Sel("a", "x", predicate.GE, value.Int(1))
	selOther := predicate.Sel("a", "x", predicate.LT, value.Int(9))
	if Signature(sel) != Signature(selOther) {
		t.Error("operator must not participate in the signature")
	}
	j1 := predicate.Join("a", "x", predicate.LE, "b", "y")
	j2 := predicate.Join("b", "y", predicate.GE, "a", "x") // canonicalizes to j1's operands
	if Signature(j1) != Signature(j2) {
		t.Error("join canonicalization must unify signatures")
	}
	if Signature(sel) == Signature(j1) {
		t.Error("selection and join signatures must differ")
	}
}
