package delta

import (
	"testing"

	"sqo/internal/constraint"
	"sqo/internal/predicate"
	"sqo/internal/schema"
	"sqo/internal/value"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.NewBuilder().
		Class("a",
			schema.Attribute{Name: "x", Type: value.KindString},
			schema.Attribute{Name: "y", Type: value.KindInt}).
		MustBuild()
}

func rule(id, val string, bound int64) *constraint.Constraint {
	return constraint.New(id,
		[]predicate.Predicate{predicate.Eq("a", "x", value.String(val))},
		nil,
		predicate.Sel("a", "y", predicate.LE, value.Int(bound)))
}

func seed(t *testing.T, cs ...*constraint.Constraint) *State {
	t.Helper()
	cat, err := constraint.NewCatalog(cs...)
	if err != nil {
		t.Fatal(err)
	}
	return NewState(cat.All())
}

func commit(t *testing.T, s *State, p Plan) {
	t.Helper()
	ords := make([]int32, len(p.Added))
	for i := range ords {
		ords[i] = int32(len(s.all) + i)
	}
	s.Commit(p, ords)
}

func TestPlanValidation(t *testing.T) {
	sch := testSchema(t)
	r1, r2 := rule("r1", "u", 1), rule("r2", "v", 2)
	s := seed(t, r1, r2)

	// Unknown removal.
	if _, err := s.Plan([]Op{{Kind: Remove, ID: "zz"}}, sch); err == nil {
		t.Error("removing an unknown id passed validation")
	}
	// Duplicate id add.
	if _, err := s.Plan([]Op{{Kind: Add, C: rule("r1", "w", 3)}}, sch); err == nil {
		t.Error("adding a duplicate id passed validation")
	}
	// Schema-invalid add.
	bad := constraint.New("r3",
		[]predicate.Predicate{predicate.Eq("nope", "x", value.String("u"))},
		nil,
		predicate.Eq("a", "x", value.String("u")))
	if _, err := s.Plan([]Op{{Kind: Add, C: bad}}, sch); err == nil {
		t.Error("schema-invalid constraint passed validation")
	}
	// Key-duplicate add merges silently.
	dup := rule("r9", "u", 1) // same key as r1
	p, err := s.Plan([]Op{{Kind: Add, C: dup}}, sch)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Errorf("key-duplicate add produced ops: %+v", p)
	}
	// Replace frees the id for its own replacement.
	p, err = s.Plan([]Op{{Kind: Replace, ID: "r1", C: rule("r1", "w", 3)}}, sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.RemovedOrds) != 1 || len(p.Added) != 1 || len(p.Removed) != 1 || p.Removed[0].ID != "r1" {
		t.Fatalf("replace plan = %+v", p)
	}
	// Removing an addition from the same delta cancels it.
	p, err = s.Plan([]Op{{Kind: Add, C: rule("r3", "w", 3)}, {Kind: Remove, ID: "r3"}}, sch)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Errorf("add-then-remove in one delta left ops: %+v", p)
	}
}

func TestCommitAndTombstones(t *testing.T) {
	sch := testSchema(t)
	r1, r2, r3 := rule("r1", "u", 1), rule("r2", "v", 2), rule("r3", "w", 3)
	s := seed(t, r1, r2, r3)

	p, err := s.Plan([]Op{{Kind: Remove, ID: "r2"}, {Kind: Add, C: rule("r4", "z", 4)}}, sch)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, p)
	if s.Live() != 3 || s.Dead() != 1 {
		t.Fatalf("live=%d dead=%d, want 3/1", s.Live(), s.Dead())
	}
	got := s.Constraints()
	if len(got) != 3 || got[0] != r1 || got[1] != r3 || got[2].ID != "r4" {
		t.Fatalf("live order wrong: %v", got)
	}

	// Re-adding the removed rule reuses nothing ordinal-wise: fresh slot,
	// but the id and key are free again.
	p, err = s.Plan([]Op{{Kind: Add, C: r2}}, sch)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, p)
	gen := s.Snapshot()
	if gen.Live() != 4 {
		t.Fatalf("live after re-add = %d", gen.Live())
	}
	live := gen.Constraints()
	if live[len(live)-1] != r2 {
		t.Fatal("re-added rule did not append to the catalog order")
	}

	// Snapshots are insulated from later commits.
	p, err = s.Plan([]Op{{Kind: Remove, ID: "r1"}}, sch)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, p)
	if gen.Live() != 4 || len(gen.Constraints()) != 4 {
		t.Fatal("published generation changed under a later commit")
	}
}

func TestRebuildSemantics(t *testing.T) {
	sch := testSchema(t)
	r1, r2, r3 := rule("r1", "u", 1), rule("r2", "v", 2), rule("r3", "w", 3)
	cat, err := constraint.NewCatalog(r1, r2, r3)
	if err != nil {
		t.Fatal(err)
	}
	out, plan, err := Rebuild(cat, []Op{
		{Kind: Replace, ID: "r1", C: rule("r1", "uu", 9)},
		{Kind: Remove, ID: "r2"},
	}, sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.RemovedOrds) != 2 || len(plan.Added) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	all := out.All()
	// Survivor order preserved, replacement appended.
	if len(all) != 2 || all[0] != r3 || all[1].ID != "r1" || all[1] == r1 {
		t.Fatalf("rebuilt order wrong: %v", all)
	}

	if _, _, err := Rebuild(cat, []Op{{Kind: Remove, ID: "nope"}}, sch); err == nil {
		t.Error("rebuild accepted an invalid delta")
	}
}

// TestGenSwap pins the exact swap walk: the longest prefix of the target
// that the live constraints hold in order survives, every other live
// constraint is removed in ordinal order, tombstones are skipped, and the
// rest of the target is appended in order.
func TestGenSwap(t *testing.T) {
	sch := testSchema(t)
	r1, r2, r3, r4 := rule("r1", "u", 1), rule("r2", "v", 2), rule("r3", "w", 3), rule("r4", "x", 4)
	s := seed(t, r1, r2, r3, r4)
	p, err := s.Plan([]Op{{Kind: Remove, ID: "r2"}}, sch)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, p)
	gen := s.Snapshot() // ordinals r1 ✝ r3 r4
	// removals renders the removal ops, and checks that the additions are
	// exactly the target's tail past the survivors.
	removals := func(ops []Op, target []*constraint.Constraint, kept int) string {
		out, added := "", 0
		for _, op := range ops {
			switch {
			case op.Kind == Remove:
				out += op.ID + " "
			case op.Kind != Add || op.C != target[kept+added]:
				t.Fatalf("op %+v is not the next addition of the target's tail", op)
			default:
				added++
			}
		}
		if added != len(target)-kept {
			t.Fatalf("%d additions, want the %d past the survivors", added, len(target)-kept)
		}
		return out
	}
	r3copy := rule("r3", "w", 3) // equal in every field, another instance
	r3doc := rule("r3", "w", 3).WithDoc("revised")
	r3renamed := rule("r3b", "w", 3)
	for _, tc := range []struct {
		name        string
		target      []*constraint.Constraint
		wantRemoved string
		wantKept    int
	}{
		{"same", []*constraint.Constraint{r1, r3, r4}, "", 3},
		{"equal copy", []*constraint.Constraint{r1, r3copy, r4}, "", 3},
		{"suffix removed", []*constraint.Constraint{r1, r3}, "r4 ", 2},
		{"appended", []*constraint.Constraint{r1, r3, r4, r2}, "", 3},
		{"middle removed", []*constraint.Constraint{r1, r4}, "r3 ", 2},
		{"pair swapped", []*constraint.Constraint{r1, r4, r3}, "r3 ", 2},
		{"doc changed", []*constraint.Constraint{r1, r3doc, r4}, "r3 r4 ", 1},
		{"renamed", []*constraint.Constraint{r1, r3renamed, r4}, "r3 r4 ", 1},
		{"empty", nil, "r1 r3 r4 ", 0},
	} {
		ops, kept := gen.Swap(tc.target)
		if got := removals(ops, tc.target, kept); got != tc.wantRemoved || kept != tc.wantKept {
			t.Errorf("%s: removed %q kept %d, want %q and %d", tc.name, got, kept, tc.wantRemoved, tc.wantKept)
		}
	}
	if gen.Dead() != 1 || gen.Live() != 3 {
		t.Fatalf("dead/live = %d/%d, want 1/3", gen.Dead(), gen.Live())
	}
}
