package symtab

import (
	"reflect"
	"testing"

	"sqo/internal/constraint"
	"sqo/internal/predicate"
	"sqo/internal/schema"
	"sqo/internal/value"
)

// testWorld builds a small logistics-flavored schema and catalog directly
// (datagen would import the index package, which imports symtab — a cycle in
// tests), with enough variety to exercise every interning path: selections,
// joins, implication chains and multi-class constraints.
func testWorld(t *testing.T) (*schema.Schema, *constraint.Catalog) {
	t.Helper()
	sch, err := schema.NewBuilder().
		Class("vehicle",
			schema.Attribute{Name: "desc", Type: value.KindString, Indexed: true},
			schema.Attribute{Name: "class", Type: value.KindInt},
			schema.Attribute{Name: "capacity", Type: value.KindInt}).
		Class("cargo",
			schema.Attribute{Name: "desc", Type: value.KindString},
			schema.Attribute{Name: "weight", Type: value.KindInt, Indexed: true}).
		Class("driver",
			schema.Attribute{Name: "licenseClass", Type: value.KindInt}).
		Relationship("collects", "vehicle", "cargo", schema.OneToMany).
		Relationship("operates", "driver", "vehicle", schema.OneToOne).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cat := constraint.MustCatalog(
		constraint.New("c1",
			[]predicate.Predicate{predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))},
			[]string{"collects"},
			predicate.Eq("cargo", "desc", value.String("frozen food"))),
		constraint.New("c2",
			[]predicate.Predicate{predicate.Sel("cargo", "weight", predicate.GT, value.Int(100))},
			[]string{"collects"},
			predicate.Sel("vehicle", "capacity", predicate.GE, value.Int(10))),
		constraint.New("c3",
			[]predicate.Predicate{predicate.Sel("cargo", "weight", predicate.GT, value.Int(50))},
			[]string{"collects", "operates"},
			predicate.Join("driver", "licenseClass", predicate.GE, "vehicle", "class")),
		constraint.New("c4", nil, nil,
			predicate.Sel("vehicle", "capacity", predicate.GE, value.Int(1))),
	)
	return sch, cat
}

// TestCompileCoversCatalog: every predicate, class and attribute mentioned by
// the catalog (and the schema) resolves to an ID, and IDs round-trip to the
// exact symbol they interned. CompiledFor is pointer-keyed, so checks run
// against the exact instances that were compiled.
func TestCompileCoversCatalog(t *testing.T) {
	sch, cat := testWorld(t)
	st := Compile(sch, cat.All())

	for _, c := range cat.All() {
		comp, ok := st.CompiledFor(c)
		if !ok {
			t.Fatalf("constraint %s not compiled", c.ID)
		}
		if got, want := st.Pred(comp.Cons).Key(), c.Consequent.Key(); got != want {
			t.Errorf("%s consequent: %s != %s", c.ID, got, want)
		}
		if len(comp.Ants) != len(c.Antecedents) {
			t.Fatalf("%s: %d compiled antecedents, want %d", c.ID, len(comp.Ants), len(c.Antecedents))
		}
		for i, a := range c.Antecedents {
			if got, want := st.Pred(comp.Ants[i]).Key(), a.Key(); got != want {
				t.Errorf("%s antecedent %d: %s != %s", c.ID, i, got, want)
			}
			if id, ok := st.PredID(a); !ok || id != comp.Ants[i] {
				t.Errorf("%s antecedent %d does not round-trip: id=%d ok=%v", c.ID, i, id, ok)
			}
		}
	}
	for _, cl := range sch.Classes() {
		id, ok := st.ClassID(cl)
		if !ok {
			t.Fatalf("schema class %q not interned", cl)
		}
		if st.ClassName(id) != cl {
			t.Errorf("class %q round-trips to %q", cl, st.ClassName(id))
		}
		for _, a := range sch.EffectiveAttributes(cl) {
			aid, ok := st.AttrID(cl, a.Name)
			if !ok {
				t.Fatalf("schema attribute %s.%s not interned", cl, a.Name)
			}
			gc, ga := st.AttrName(aid)
			if gc != cl || ga != a.Name {
				t.Errorf("attr %s.%s round-trips to %s.%s", cl, a.Name, gc, ga)
			}
		}
	}
}

// TestAdjacencyMatchesImplies: the precomputed implication adjacency is
// exactly what pairwise predicate.Implies would report, both directions.
func TestAdjacencyMatchesImplies(t *testing.T) {
	sch, cat := testWorld(t)
	st := Compile(sch, cat.All())
	m := st.NumPreds()
	sawEdge := false
	for i := 0; i < m; i++ {
		pi := st.Pred(PredID(i))
		want := map[PredID]bool{}
		for j := 0; j < m; j++ {
			if i != j && pi.Implies(st.Pred(PredID(j))) {
				want[PredID(j)] = true
			}
		}
		got := st.Implies(PredID(i))
		if len(got) != len(want) {
			t.Fatalf("pred %d (%s): fwd = %v, want %v", i, pi, got, want)
		}
		prev := PredID(-1)
		for _, j := range got {
			sawEdge = true
			if !want[j] {
				t.Errorf("pred %d: spurious implication of %d", i, j)
			}
			if j <= prev {
				t.Errorf("pred %d: fwd not ascending: %v", i, got)
			}
			prev = j
		}
		for _, j := range got {
			found := false
			for _, r := range st.ImpliedBy(j) {
				if r == PredID(i) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("rev adjacency of %d misses %d", j, i)
			}
		}
	}
	if !sawEdge {
		t.Error("test world produced no implication edges; fixture too weak")
	}
}

// TestSigOrdinals: predicates share a signature ordinal exactly when they
// share an operand signature, and foreign signatures report !ok.
func TestSigOrdinals(t *testing.T) {
	sch, cat := testWorld(t)
	st := Compile(sch, cat.All())
	m := st.NumPreds()
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			pi, pj := st.Pred(PredID(i)), st.Pred(PredID(j))
			same := sigOf(pi) == sigOf(pj)
			if got := st.SigOrdinal(PredID(i)) == st.SigOrdinal(PredID(j)); got != same {
				t.Errorf("sig ordinal equality of %s / %s = %v, want %v", pi, pj, got, same)
			}
		}
	}
	foreign := predicate.Eq("no-such-class", "attr", value.Int(1))
	if _, ok := st.SigOrdinalOf(foreign); ok {
		t.Error("foreign signature unexpectedly resolved")
	}
	some := st.Pred(0)
	if sig, ok := st.SigOrdinalOf(some); !ok || sig != st.SigOrdinal(0) {
		t.Errorf("SigOrdinalOf(%s) = %d,%v; want %d,true", some, sig, ok, st.SigOrdinal(0))
	}
}

// TestNilSchemaCompile: compiling without a schema still interns everything
// the constraints mention.
func TestNilSchemaCompile(t *testing.T) {
	_, cat := testWorld(t)
	st := Compile(nil, cat.All())
	if st.NumPreds() == 0 || st.NumClasses() == 0 || st.NumAttrs() == 0 {
		t.Fatalf("empty symbol space: preds=%d classes=%d attrs=%d",
			st.NumPreds(), st.NumClasses(), st.NumAttrs())
	}
	for _, c := range cat.All() {
		if _, ok := st.CompiledFor(c); !ok {
			t.Fatalf("constraint %s not compiled", c.ID)
		}
		for _, cl := range c.Classes() {
			if _, ok := st.ClassID(cl); !ok {
				t.Fatalf("class %q not interned", cl)
			}
		}
	}
}

// TestCompileTablesMatchImage: Compile grows its frozen tables as it mints
// IDs, and must end at the exact-size tables Image writes for the same
// symbols, so a compiled and a restored base are one structure.
func TestCompileTablesMatchImage(t *testing.T) {
	sch, cat := testWorld(t)
	st := Compile(sch, cat.All())
	ordKeys := make([]string, cat.Len())
	for i, c := range cat.All() {
		ordKeys[i] = c.Key()
	}
	img := st.Image(ordKeys)
	for _, tc := range []struct {
		name      string
		got, want []int32
	}{
		{"classes", st.base.classes.Slots(), img.ClassSlots},
		{"attrs", st.base.attrs.Slots(), img.AttrSlots},
		{"sigs", st.base.sigs.Slots(), img.SigSlots},
		{"preds", st.base.preds.Slots(), img.PoolSlots},
		{"ords", st.base.ords.Slots(), img.OrdSlots},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s: compiled slots %v, image slots %v", tc.name, tc.got, tc.want)
		}
	}
	if !reflect.DeepEqual(st.base.sigRep, img.SigRep) {
		t.Errorf("sigRep: compiled %v, image %v", st.base.sigRep, img.SigRep)
	}
}
