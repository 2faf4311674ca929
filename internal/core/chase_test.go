package core

import (
	"reflect"
	"slices"
	"testing"

	"sqo/internal/constraint"
	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/schema"
	"sqo/internal/value"
)

// chaseFixture builds a table over one class with the given constraints and
// query predicates, without running the optimizer loop.
func chaseFixture(t *testing.T, constraints []*constraint.Constraint, queryPreds []predicate.Predicate) *table {
	t.Helper()
	s := schema.NewBuilder().
		Class("t",
			schema.Attribute{Name: "a", Type: value.KindInt},
			schema.Attribute{Name: "b", Type: value.KindInt},
			schema.Attribute{Name: "c", Type: value.KindInt},
			schema.Attribute{Name: "d", Type: value.KindInt}).
		MustBuild()
	q := query.New("t").AddProject("t", "a")
	for _, p := range queryPreds {
		q.AddSelect(p)
	}
	if err := q.Validate(s); err != nil {
		t.Fatalf("fixture query invalid: %v", err)
	}
	return newTable(t, q, s, constraints, Options{})
}

func pid(t *testing.T, tb *table, p predicate.Predicate) int32 {
	t.Helper()
	id, ok := tb.lookupCol(p)
	if !ok {
		t.Fatalf("predicate %s not interned", p)
	}
	return int32(id)
}

func TestChaseDirectDerivation(t *testing.T) {
	a1 := predicate.Eq("t", "a", value.Int(1))
	b2 := predicate.Eq("t", "b", value.Int(2))
	c := constraint.New("c", []predicate.Predicate{a1}, nil, b2)
	tb := chaseFixture(t, []*constraint.Constraint{c}, []predicate.Predicate{a1, b2})

	ch := newChase(tb, []int32{pid(t, tb, a1)})
	if !ch.derivable(pid(t, tb, b2)) {
		t.Error("b=2 should be derivable from a=1 via c")
	}
	supports := ch.supports(pid(t, tb, b2))
	if !reflect.DeepEqual(supports, []int32{pid(t, tb, a1)}) {
		t.Errorf("supports = %v, want just a=1", supports)
	}
}

func TestChaseTransitiveDerivation(t *testing.T) {
	a1 := predicate.Eq("t", "a", value.Int(1))
	b2 := predicate.Eq("t", "b", value.Int(2))
	c3 := predicate.Eq("t", "c", value.Int(3))
	k1 := constraint.New("k1", []predicate.Predicate{a1}, nil, b2)
	k2 := constraint.New("k2", []predicate.Predicate{b2}, nil, c3)
	tb := chaseFixture(t, []*constraint.Constraint{k1, k2}, []predicate.Predicate{a1, b2, c3})

	ch := newChase(tb, []int32{pid(t, tb, a1)})
	if !ch.derivable(pid(t, tb, c3)) {
		t.Error("c=3 should chain through b=2")
	}
	supports := ch.supports(pid(t, tb, c3))
	if !reflect.DeepEqual(supports, []int32{pid(t, tb, a1)}) {
		t.Errorf("transitive supports should bottom out at the base: %v", supports)
	}
}

func TestChaseImplicationStep(t *testing.T) {
	// Base a=5; constraint needs a>3.
	a5 := predicate.Eq("t", "a", value.Int(5))
	aGT3 := predicate.Sel("t", "a", predicate.GT, value.Int(3))
	b2 := predicate.Eq("t", "b", value.Int(2))
	k := constraint.New("k", []predicate.Predicate{aGT3}, nil, b2)
	tb := chaseFixture(t, []*constraint.Constraint{k}, []predicate.Predicate{a5, b2})

	ch := newChase(tb, []int32{pid(t, tb, a5)})
	if !ch.derivable(pid(t, tb, b2)) {
		t.Error("a=5 implies a>3, so b=2 should derive")
	}
	// The support is the implying base predicate a=5.
	supports := ch.supports(pid(t, tb, b2))
	if !reflect.DeepEqual(supports, []int32{pid(t, tb, a5)}) {
		t.Errorf("supports = %v, want a=5", supports)
	}
}

func TestChaseNotDerivable(t *testing.T) {
	a1 := predicate.Eq("t", "a", value.Int(1))
	b2 := predicate.Eq("t", "b", value.Int(2))
	c3 := predicate.Eq("t", "c", value.Int(3))
	k := constraint.New("k", []predicate.Predicate{b2}, nil, c3)
	tb := chaseFixture(t, []*constraint.Constraint{k}, []predicate.Predicate{a1, b2, c3})

	// Base is a=1 only: b=2 absent, so neither b=2 nor c=3 derive.
	ch := newChase(tb, []int32{pid(t, tb, a1)})
	if ch.derivable(pid(t, tb, b2)) || ch.derivable(pid(t, tb, c3)) {
		t.Error("nothing should derive from an unrelated base")
	}
	if ch.supports(pid(t, tb, c3)) != nil {
		t.Error("supports of an underivable target should be nil")
	}
}

func TestChaseMutualConstraintsNeedOneCarrier(t *testing.T) {
	// a=1 <-> b=2 (mutual implication via two constraints): from an empty
	// base nothing derives; from either one, both derive.
	a1 := predicate.Eq("t", "a", value.Int(1))
	b2 := predicate.Eq("t", "b", value.Int(2))
	k1 := constraint.New("k1", []predicate.Predicate{a1}, nil, b2)
	k2 := constraint.New("k2", []predicate.Predicate{b2}, nil, a1)
	tb := chaseFixture(t, []*constraint.Constraint{k1, k2}, []predicate.Predicate{a1, b2})

	empty := newChase(tb, nil)
	if empty.derivable(pid(t, tb, a1)) || empty.derivable(pid(t, tb, b2)) {
		t.Error("mutual constraints must not bootstrap from nothing")
	}
	fromA := newChase(tb, []int32{pid(t, tb, a1)})
	if !fromA.derivable(pid(t, tb, b2)) {
		t.Error("b=2 should derive from a=1")
	}
	fromB := newChase(tb, []int32{pid(t, tb, b2)})
	if !fromB.derivable(pid(t, tb, a1)) {
		t.Error("a=1 should derive from b=2")
	}
}

func TestChaseMultiAntecedentSupports(t *testing.T) {
	a1 := predicate.Eq("t", "a", value.Int(1))
	b2 := predicate.Eq("t", "b", value.Int(2))
	c3 := predicate.Eq("t", "c", value.Int(3))
	d4 := predicate.Eq("t", "d", value.Int(4))
	k := constraint.New("k", []predicate.Predicate{a1, b2, c3}, nil, d4)
	tb := chaseFixture(t, []*constraint.Constraint{k}, []predicate.Predicate{a1, b2, c3, d4})

	ch := newChase(tb, []int32{pid(t, tb, a1), pid(t, tb, b2), pid(t, tb, c3)})
	if !ch.derivable(pid(t, tb, d4)) {
		t.Fatal("d=4 should derive")
	}
	supports := append([]int32(nil), ch.supports(pid(t, tb, d4))...)
	slices.Sort(supports)
	want := []int32{pid(t, tb, a1), pid(t, tb, b2), pid(t, tb, c3)}
	slices.Sort(want)
	if !reflect.DeepEqual(supports, want) {
		t.Errorf("supports = %v, want all three antecedents %v", supports, want)
	}
}

func TestChaseUnconditionalConstraint(t *testing.T) {
	// No antecedents: the consequent derives from the empty base.
	b2 := predicate.Eq("t", "b", value.Int(2))
	k := constraint.New("k", nil, nil, b2)
	tb := chaseFixture(t, []*constraint.Constraint{k}, []predicate.Predicate{b2})
	ch := newChase(tb, nil)
	if !ch.derivable(pid(t, tb, b2)) {
		t.Error("unconditional consequent should always derive")
	}
	if got := ch.supports(pid(t, tb, b2)); len(got) != 0 {
		t.Errorf("unconditional derivation needs no supports, got %v", got)
	}
}

// TestMutualDropSoundness reproduces the soundness hole the chase exists
// for: query {a=1, b=2} with a=1 <-> b=2 and a cost model that discards all
// optionals. Without the repair both predicates would vanish; with it, one
// carrier survives.
func TestMutualDropSoundness(t *testing.T) {
	s := schema.NewBuilder().
		Class("t",
			schema.Attribute{Name: "a", Type: value.KindInt},
			schema.Attribute{Name: "b", Type: value.KindInt}).
		MustBuild()
	a1 := predicate.Eq("t", "a", value.Int(1))
	b2 := predicate.Eq("t", "b", value.Int(2))
	cat := constraint.MustCatalog(
		constraint.New("k1", []predicate.Predicate{a1}, nil, b2),
		constraint.New("k2", []predicate.Predicate{b2}, nil, a1),
	)
	q := query.New("t").AddProject("t", "a").AddSelect(a1).AddSelect(b2)
	o := NewOptimizer(s, CatalogSource{Catalog: cat}, Options{Cost: dropAll{}})
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(res.Optimized.Selects) == 0 {
		t.Fatalf("soundness violated: both mutual carriers dropped: %s", res.Optimized)
	}
	// The restore must be visible in the trace.
	found := false
	for _, tr := range res.Trace {
		if tr.Kind == TransformRestoreSupport {
			found = true
		}
	}
	if !found {
		t.Error("expected a restore-support trace entry")
	}
}
