package sqo_test

import (
	"reflect"
	"testing"

	"sqo"
	"sqo/internal/core"
)

// figure23 builds the paper's running example through the public API only.
func figure23(t *testing.T) (*sqo.Schema, *sqo.Catalog, *sqo.Query) {
	t.Helper()
	sch, err := sqo.NewSchemaBuilder().
		Class("supplier",
			sqo.Attribute{Name: "name", Type: sqo.KindString, Indexed: true},
			sqo.Attribute{Name: "address", Type: sqo.KindString}).
		Class("cargo",
			sqo.Attribute{Name: "desc", Type: sqo.KindString},
			sqo.Attribute{Name: "quantity", Type: sqo.KindInt}).
		Class("vehicle",
			sqo.Attribute{Name: "vehicle#", Type: sqo.KindString, Indexed: true},
			sqo.Attribute{Name: "desc", Type: sqo.KindString}).
		Relationship("supplies", "supplier", "cargo", sqo.OneToMany).
		Relationship("collects", "vehicle", "cargo", sqo.OneToMany).
		Build()
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	cat := sqo.MustCatalog(
		sqo.NewConstraint("c1",
			[]sqo.Predicate{sqo.Eq("vehicle", "desc", sqo.StringValue("refrigerated truck"))},
			[]string{"collects"},
			sqo.Eq("cargo", "desc", sqo.StringValue("frozen food"))),
		sqo.NewConstraint("c2",
			[]sqo.Predicate{sqo.Eq("cargo", "desc", sqo.StringValue("frozen food"))},
			[]string{"supplies"},
			sqo.Eq("supplier", "name", sqo.StringValue("SFI"))),
	)
	q := sqo.NewQuery("supplier", "cargo", "vehicle").
		AddProject("vehicle", "vehicle#").
		AddProject("cargo", "desc").
		AddProject("cargo", "quantity").
		AddSelect(sqo.Eq("vehicle", "desc", sqo.StringValue("refrigerated truck"))).
		AddSelect(sqo.Eq("supplier", "name", sqo.StringValue("SFI"))).
		AddRelationship("collects").
		AddRelationship("supplies")
	return sch, cat, q
}

// TestQuickstartFigure23 reproduces the paper's worked example end to end
// through the facade, with the default (heuristic) cost model.
func TestQuickstartFigure23(t *testing.T) {
	sch, cat, q := figure23(t)
	opt := core.NewOptimizer(sch, core.CatalogSource{Catalog: cat}, sqo.Options{})
	res, err := opt.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	got := res.Optimized
	if got.HasClass("supplier") || !got.HasClass("cargo") || !got.HasClass("vehicle") {
		t.Errorf("classes wrong: %s", got)
	}
	want := map[string]bool{
		sqo.Eq("vehicle", "desc", sqo.StringValue("refrigerated truck")).Key(): true,
		sqo.Eq("cargo", "desc", sqo.StringValue("frozen food")).Key():          true,
	}
	if len(got.Selects) != 2 {
		t.Fatalf("selects = %v", got.Selects)
	}
	for _, p := range got.Selects {
		if !want[p.Key()] {
			t.Errorf("unexpected predicate %s", p)
		}
	}
}

func TestParseQueryFacade(t *testing.T) {
	q, err := sqo.ParseQuery(`(SELECT {cargo.desc} {} {cargo.desc = "frozen food"} {} {cargo})`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if len(q.Selects) != 1 || q.Classes[0] != "cargo" {
		t.Errorf("parsed: %s", q)
	}
	if _, err := sqo.ParseQuery("nonsense"); err == nil {
		t.Error("bad input should fail")
	}
}

func TestValuesFacade(t *testing.T) {
	if sqo.StringValue("x").Kind() != sqo.KindString ||
		sqo.IntValue(1).Kind() != sqo.KindInt ||
		sqo.FloatValue(1.5).Kind() != sqo.KindFloat ||
		sqo.BoolValue(true).Kind() != sqo.KindBool {
		t.Error("value constructors broken")
	}
	v, err := sqo.ParseValue("42")
	if err != nil || v.IntVal() != 42 {
		t.Errorf("ParseValue: %v, %v", v, err)
	}
}

func TestLogisticsWorldFacade(t *testing.T) {
	cfg := sqo.DB1()
	db, err := sqo.GenerateDatabase(cfg)
	if err != nil {
		t.Fatalf("GenerateDatabase: %v", err)
	}
	if db.Count("cargo") != cfg.Cargos {
		t.Errorf("cargo count = %d", db.Count("cargo"))
	}
	if got := len(sqo.DBConfigs()); got != 4 {
		t.Errorf("DBConfigs = %d", got)
	}
	paths := sqo.EnumerateSchemaPaths(sqo.LogisticsSchema())
	if len(paths) < 30 {
		t.Errorf("paths = %d", len(paths))
	}
	gen := sqo.NewWorkloadGenerator(db, sqo.LogisticsConstraints(), sqo.WorkloadOptions{Seed: 3})
	qs, err := gen.Workload(5)
	if err != nil || len(qs) != 5 {
		t.Fatalf("Workload: %v, %d", err, len(qs))
	}
	if id, err := sqo.CheckCatalog(db, sqo.LogisticsConstraints()); err != nil || id != "" {
		t.Errorf("CheckCatalog: %q, %v", id, err)
	}
}

func TestExecutorFacade(t *testing.T) {
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	exec := sqo.NewExecutor(db)
	q := sqo.NewQuery("cargo").
		AddProject("cargo", "desc").
		AddSelect(sqo.Eq("cargo", "desc", sqo.StringValue("frozen food")))
	res, err := exec.Execute(q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Error("expected frozen food cargos")
	}
	if res.Cost(sqo.DefaultWeights) <= 0 {
		t.Error("execution should cost something")
	}
}

// TestSchemaTextRoundTripFacade: the logistics schema survives render/parse.
func TestSchemaTextRoundTripFacade(t *testing.T) {
	text := sqo.RenderSchema(sqo.LogisticsSchema())
	back, err := sqo.ParseSchema(text)
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	if sqo.RenderSchema(back) != text {
		t.Error("schema text round trip not a fixpoint")
	}
}

// TestDatabaseDumpRoundTripFacade: a generated database survives dump/load
// with identical query results.
func TestDatabaseDumpRoundTripFacade(t *testing.T) {
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	data, err := sqo.DumpDatabase(db)
	if err != nil {
		t.Fatalf("DumpDatabase: %v", err)
	}
	back, err := sqo.LoadDatabase(data)
	if err != nil {
		t.Fatalf("LoadDatabase: %v", err)
	}
	q := sqo.NewQuery("supplier", "cargo").
		AddProject("cargo", "desc").
		AddProject("cargo", "quantity").
		AddSelect(sqo.Eq("supplier", "name", sqo.StringValue("SFI"))).
		AddRelationship("supplies")
	a, err := sqo.NewExecutor(db).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sqo.NewExecutor(back).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := a.Canonical(), b.Canonical()
	if len(ca) == 0 || len(ca) != len(cb) {
		t.Fatalf("rows %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("row %d differs after reload", i)
		}
	}
	// The reloaded instance still satisfies every constraint.
	if id, err := sqo.CheckCatalog(back, sqo.LogisticsConstraints()); err != nil || id != "" {
		t.Errorf("constraints on reloaded db: %q, %v", id, err)
	}
}

// TestConstraintCatalogTextRoundTrip: the whole logistics catalog survives
// render -> parse with identical constraint identities.
func TestConstraintCatalogTextRoundTrip(t *testing.T) {
	cat := sqo.LogisticsConstraints()
	var text string
	for _, c := range cat.All() {
		text += c.String() + "\n"
	}
	back, err := sqo.ParseConstraintCatalog(text)
	if err != nil {
		t.Fatalf("ParseConstraintCatalog: %v", err)
	}
	if back.Len() != cat.Len() {
		t.Fatalf("round trip: %d vs %d constraints", back.Len(), cat.Len())
	}
	for _, c := range cat.All() {
		got := back.Get(c.ID)
		if got == nil {
			t.Errorf("constraint %s lost", c.ID)
			continue
		}
		if got.Key() != c.Key() {
			t.Errorf("constraint %s changed identity:\n in: %s\nout: %s", c.ID, c, got)
		}
	}
	if err := back.Validate(sqo.LogisticsSchema()); err != nil {
		t.Errorf("re-parsed catalog invalid: %v", err)
	}
}

func TestDeriveRulesFacade(t *testing.T) {
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	derived, err := sqo.DeriveRules(db, sqo.DeriveOptions{Bounds: true})
	if err != nil {
		t.Fatalf("DeriveRules: %v", err)
	}
	if derived.Len() == 0 {
		t.Fatal("expected derived rules")
	}
	for _, c := range derived.All() {
		if !c.StateDependent {
			t.Errorf("derived rule %s not marked state-dependent", c.ID)
		}
	}
	merged, err := sqo.MergeCatalogs(sqo.LogisticsConstraints(), derived)
	if err != nil {
		t.Fatalf("MergeCatalogs: %v", err)
	}
	if merged.Len() < sqo.LogisticsConstraints().Len() {
		t.Error("merge lost declared constraints")
	}
	// The merged catalog still holds on the source database.
	if id, err := sqo.CheckCatalog(db, merged); err != nil || id != "" {
		t.Errorf("merged catalog violated: %q, %v", id, err)
	}
}

// TestOptimizeThenExecuteDeterministic: the full public pipeline is
// reproducible run to run.
func TestOptimizeThenExecuteDeterministic(t *testing.T) {
	run := func() []string {
		db, err := sqo.GenerateDatabase(sqo.DB1())
		if err != nil {
			t.Fatal(err)
		}
		model := sqo.NewCostModel(db.Schema(), db.Analyze(), sqo.DefaultWeights)
		opt := core.NewOptimizer(db.Schema(),
			core.CatalogSource{Catalog: sqo.LogisticsConstraints()},
			sqo.Options{Cost: model})
		gen := sqo.NewWorkloadGenerator(db, sqo.LogisticsConstraints(), sqo.WorkloadOptions{Seed: 5})
		qs, err := gen.Workload(5)
		if err != nil {
			t.Fatal(err)
		}
		exec := sqo.NewExecutor(db)
		var out []string
		for _, q := range qs {
			res, err := opt.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := exec.Execute(res.Optimized)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Optimized.String())
			out = append(out, rows.Canonical()...)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("pipeline not deterministic")
	}
}
