package core

import (
	"testing"

	"sqo/internal/constraint"
	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/schema"
	"sqo/internal/symtab"
	"sqo/internal/value"
)

// newTable runs the paper's Initialization step (Section 3.1) alone: collect
// the relevant constraints into C and the predicates into P, and fill the
// table, in a symbol space compiled from the relevant constraints.
func newTable(t testing.TB, q *query.Query, sch *schema.Schema, relevant []*constraint.Constraint, opts Options) *table {
	t.Helper()
	tb := &table{}
	tb.reset(q, sch, opts, symtab.Compile(sch, relevant))
	if err := tb.init(relevant, false); err != nil {
		t.Fatal(err)
	}
	return tb
}

func tableSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.NewBuilder().
		Class("t",
			schema.Attribute{Name: "a", Type: value.KindInt},
			schema.Attribute{Name: "b", Type: value.KindInt},
			schema.Attribute{Name: "idx", Type: value.KindInt, Indexed: true}).
		MustBuild()
}

// TestInitializationCells checks the Section 3.1 table construction against
// the paper's cell vocabulary.
func TestInitializationCells(t *testing.T) {
	s := tableSchema(t)
	a1 := predicate.Eq("t", "a", value.Int(1))
	b2 := predicate.Eq("t", "b", value.Int(2))
	idx3 := predicate.Eq("t", "idx", value.Int(3))
	// c1: a=1 -> b=2 (antecedent present, consequent present)
	// c2: b=2 -> idx=3 (antecedent present, consequent absent)
	// c3: idx=3 -> a=1 (antecedent absent, consequent present)
	c1 := constraint.New("c1", []predicate.Predicate{a1}, nil, b2)
	c2 := constraint.New("c2", []predicate.Predicate{b2}, nil, idx3)
	c3 := constraint.New("c3", []predicate.Predicate{idx3}, nil, a1)
	q := query.New("t").AddProject("t", "a").AddSelect(a1).AddSelect(b2)
	tb := newTable(t, q, s, []*constraint.Constraint{c1, c2, c3}, Options{DisableImpliedAntecedents: true})

	if len(tb.constraints) != 3 {
		t.Fatalf("rows = %d", len(tb.constraints))
	}
	idA, _ := tb.lookupCol(a1)
	idB, _ := tb.lookupCol(b2)
	idI, _ := tb.lookupCol(idx3)

	cases := []struct {
		row  int
		col  int
		want Cell
	}{
		{0, idA, CellPresentAntecedent},
		{0, idB, CellImperative},
		{0, idI, CellNone},
		{1, idB, CellPresentAntecedent},
		{1, idI, CellAbsentConsequent},
		{1, idA, CellNone},
		{2, idI, CellAbsentAntecedent},
		{2, idA, CellImperative},
		{2, idB, CellNone},
	}
	for _, c := range cases {
		if got := tb.cell(c.row, c.col); got != c.want {
			t.Errorf("cell[%d][%d] = %v, want %v", c.row, c.col, got, c.want)
		}
	}
	// Presence/tag bookkeeping.
	if !tb.present[idA] || !tb.present[idB] || tb.present[idI] {
		t.Error("presence flags wrong")
	}
	if !tb.inQuery[idA] || tb.inQuery[idI] {
		t.Error("inQuery flags wrong")
	}
	if tb.tags[idA] != TagImperative || tb.tags[idB] != TagImperative {
		t.Error("query predicates start imperative")
	}
}

// TestColumnUpdateOnFire verifies the Section 3.3 column update: firing a
// constraint flips AbsentAntecedent cells of the consequent's column to
// PresentAntecedent and synchronizes tag cells.
func TestColumnUpdateOnFire(t *testing.T) {
	s := tableSchema(t)
	a1 := predicate.Eq("t", "a", value.Int(1))
	idx3 := predicate.Eq("t", "idx", value.Int(3))
	b2 := predicate.Eq("t", "b", value.Int(2))
	// c1 introduces idx=3 (indexed -> optional); c2 uses idx=3 as its
	// antecedent to eliminate b=2.
	c1 := constraint.New("c1", []predicate.Predicate{a1}, nil, idx3)
	c2 := constraint.New("c2", []predicate.Predicate{idx3}, nil, b2)
	q := query.New("t").AddProject("t", "a").AddSelect(a1).AddSelect(b2)
	tb := newTable(t, q, s, []*constraint.Constraint{c1, c2}, Options{DisableImpliedAntecedents: true})

	idI, _ := tb.lookupCol(idx3)
	if tb.cell(1, idI) != CellAbsentAntecedent {
		t.Fatalf("precondition: c2's antecedent should be absent, got %v", tb.cell(1, idI))
	}
	if !tb.fire(0) {
		t.Fatal("c1 should fire")
	}
	if tb.cell(1, idI) != CellPresentAntecedent {
		t.Errorf("column update should enable c2: %v", tb.cell(1, idI))
	}
	if !tb.present[idI] || tb.tags[idI] != TagOptional {
		t.Errorf("idx=3 should be present/optional: present=%v tag=%v", tb.present[idI], tb.tags[idI])
	}
	// Firing c2 now lowers b=2 to optional (inter/intra: intra on t,
	// b not indexed -> redundant).
	if !tb.fire(1) {
		t.Fatal("c2 should fire after the column update")
	}
	idB, _ := tb.lookupCol(b2)
	if tb.tags[idB] != TagRedundant {
		t.Errorf("b=2 tag = %v, want redundant (intra, not indexed)", tb.tags[idB])
	}
}

// TestProducedTagMatrix pins Tables 3.1/3.2: intra+indexed -> optional,
// intra+plain -> redundant, inter -> optional.
func TestProducedTagMatrix(t *testing.T) {
	s := schema.NewBuilder().
		Class("x",
			schema.Attribute{Name: "plain", Type: value.KindInt},
			schema.Attribute{Name: "keyed", Type: value.KindInt, Indexed: true}).
		Class("y",
			schema.Attribute{Name: "v", Type: value.KindInt}).
		Relationship("r", "x", "y", schema.ManyToOne).
		MustBuild()

	intraPlain := constraint.New("ip",
		[]predicate.Predicate{predicate.Eq("x", "keyed", value.Int(1))}, nil,
		predicate.Eq("x", "plain", value.Int(2)))
	intraKeyed := constraint.New("ik",
		[]predicate.Predicate{predicate.Eq("x", "plain", value.Int(1))}, nil,
		predicate.Eq("x", "keyed", value.Int(2)))
	inter := constraint.New("in",
		[]predicate.Predicate{predicate.Eq("x", "plain", value.Int(1))}, []string{"r"},
		predicate.Eq("y", "v", value.Int(2)))
	interJoin := constraint.New("ij",
		nil, []string{"r"},
		predicate.Join("x", "plain", predicate.LE, "y", "v"))

	q := query.New("x", "y").AddProject("x", "plain").AddRelationship("r")
	tb := newTable(t, q, s, []*constraint.Constraint{intraPlain, intraKeyed, inter, interJoin}, Options{})

	wants := []Tag{TagRedundant, TagOptional, TagOptional, TagOptional}
	for row, want := range wants {
		if got := tb.producedTag(row); got != want {
			t.Errorf("row %d (%s): producedTag = %v, want %v", row, tb.constraints[row].ID, got, want)
		}
	}
	// Join consequents never count as indexed.
	if tb.consequentIndexed(3) {
		t.Error("join consequent cannot be indexed")
	}
	if !tb.consequentIndexed(1) || tb.consequentIndexed(0) {
		t.Error("consequentIndexed broken")
	}
}

// TestQueueFIFODrainAndTermination: every enqueued constraint is popped
// exactly once and the loop terminates even with cyclic constraint pairs.
func TestQueueFIFODrainAndTermination(t *testing.T) {
	s := tableSchema(t)
	a1 := predicate.Eq("t", "a", value.Int(1))
	b2 := predicate.Eq("t", "b", value.Int(2))
	cat := constraint.MustCatalog(
		constraint.New("k1", []predicate.Predicate{a1}, nil, b2),
		constraint.New("k2", []predicate.Predicate{b2}, nil, a1),
	)
	q := query.New("t").AddProject("t", "a").AddSelect(a1).AddSelect(b2)
	o := NewOptimizer(s, CatalogSource{Catalog: cat}, Options{Cost: keepAll{}})
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("cyclic constraints must terminate: %v", err)
	}
	// Both constraints fire once (each lowers the other's consequent).
	if res.Stats.Fires != 2 {
		t.Errorf("Fires = %d, want 2", res.Stats.Fires)
	}
}

// TestFireQueuePriorities exercises the heap directly.
func TestFireQueuePriorities(t *testing.T) {
	fq := &fireQueue{priorities: true}
	fq.push(0, 2)
	fq.push(1, 0)
	fq.push(2, 1)
	fq.push(3, 0)
	order := []int{fq.pop(), fq.pop(), fq.pop(), fq.pop()}
	// Priority 0 first (FIFO within: 1 then 3), then 1, then 2.
	want := []int{1, 3, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", order, want)
		}
	}
	// FIFO mode ignores priorities entirely.
	fifo := &fireQueue{}
	fifo.push(7, 9)
	fifo.push(8, 0)
	if fifo.pop() != 7 || fifo.pop() != 8 {
		t.Error("FIFO queue should ignore priorities")
	}
}

// TestImpliedAntecedentColumnRipple: introducing a predicate marks the
// antecedent cells of everything it implies as present.
func TestImpliedAntecedentColumnRipple(t *testing.T) {
	s := tableSchema(t)
	a1 := predicate.Eq("t", "a", value.Int(1))
	b7 := predicate.Eq("t", "b", value.Int(7)) // introduced
	bGT5 := predicate.Sel("t", "b", predicate.GT, value.Int(5))
	idx9 := predicate.Eq("t", "idx", value.Int(9))
	// c1 introduces b=7; c2 needs b>5 (implied by b=7) to introduce idx=9.
	c1 := constraint.New("c1", []predicate.Predicate{a1}, nil, b7)
	c2 := constraint.New("c2", []predicate.Predicate{bGT5}, nil, idx9)
	q := query.New("t").AddProject("t", "a").AddSelect(a1)
	tb := newTable(t, q, s, []*constraint.Constraint{c1, c2}, Options{})

	idGT, _ := tb.lookupCol(bGT5)
	if tb.cell(1, idGT) != CellAbsentAntecedent {
		t.Fatalf("precondition failed: %v", tb.cell(1, idGT))
	}
	if !tb.fire(0) {
		t.Fatal("c1 should fire")
	}
	if tb.cell(1, idGT) != CellPresentAntecedent {
		t.Errorf("implication ripple missing: %v", tb.cell(1, idGT))
	}
}

// TestOpsCounterMonotone: more constraints mean more table operations, and
// the counter is always positive.
func TestOpsCounterMonotone(t *testing.T) {
	prev := int64(0)
	for _, n := range []int{1, 4, 8} {
		var cs []*constraint.Constraint
		for j := 0; j < n; j++ {
			cs = append(cs, constraint.New(
				string(rune('a'+j)),
				[]predicate.Predicate{predicate.Eq("t", "a", value.Int(1))},
				nil,
				predicate.Eq("t", "b", value.Int(int64(j)))))
		}
		s := tableSchema(t)
		q := query.New("t").AddProject("t", "a").AddSelect(predicate.Eq("t", "a", value.Int(1)))
		o := NewOptimizer(s, CatalogSource{Catalog: constraint.MustCatalog(cs...)}, Options{Cost: keepAll{}})
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Ops <= prev {
			t.Errorf("n=%d: ops %d not monotone over %d", n, res.Stats.Ops, prev)
		}
		prev = res.Stats.Ops
	}
}

// TestTaggedPredicatesMatchesFinalTags: the display accessor agrees with the
// canonical map and is a defensive copy.
func TestTaggedPredicatesMatchesFinalTags(t *testing.T) {
	o := newPaperOptimizer(t, Options{})
	res, err := o.Optimize(paperQuery())
	if err != nil {
		t.Fatal(err)
	}
	tagged := res.TaggedPredicates()
	if len(tagged) != len(res.FinalTags()) {
		t.Fatalf("tagged = %d entries, FinalTags = %d", len(tagged), len(res.FinalTags()))
	}
	for _, tp := range tagged {
		if res.FinalTags()[tp.Pred.Key()] != tp.Tag {
			t.Errorf("mismatch for %s: %v vs %v", tp.Pred, tp.Tag, res.FinalTags()[tp.Pred.Key()])
		}
	}
	tagged[0].Tag = TagRedundant
	if res.TaggedPredicates()[0].Tag == TagRedundant && res.FinalTags()[tagged[0].Pred.Key()] != TagRedundant {
		t.Error("TaggedPredicates must return a copy")
	}
}
