package sqo_test

import (
	"fmt"
	"reflect"
	"testing"

	"sqo"
	"sqo/internal/core"
)

// TestSemanticEquivalenceProperty is the project's central invariant: on
// randomly generated constraint-satisfying databases, the optimized query
// returns exactly the same result multiset as the original — under every
// optimizer configuration.
//
// The databases are generated by the same machinery that enforces the
// constraint catalog (verified separately by datagen's tests plus
// CheckCatalog here), so any divergence is an optimizer soundness bug.
func TestSemanticEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	cat := sqo.LogisticsConstraints()

	variants := []struct {
		name string
		opts func(model *sqo.CostModel) sqo.Options
	}{
		{"cost-model", func(m *sqo.CostModel) sqo.Options {
			return sqo.Options{Cost: m}
		}},
		{"heuristic", func(*sqo.CostModel) sqo.Options {
			return sqo.Options{}
		}},
		{"priorities", func(m *sqo.CostModel) sqo.Options {
			return sqo.Options{Cost: m, UsePriorities: true}
		}},
		{"budget-2", func(m *sqo.CostModel) sqo.Options {
			return sqo.Options{Cost: m, Budget: 2}
		}},
		{"verbatim-antecedents", func(m *sqo.CostModel) sqo.Options {
			return sqo.Options{Cost: m, DisableImpliedAntecedents: true}
		}},
		{"no-subsumption", func(m *sqo.CostModel) sqo.Options {
			return sqo.Options{Cost: m, DisableSubsumption: true}
		}},
		{"contradictions", func(m *sqo.CostModel) sqo.Options {
			return sqo.Options{Cost: m, DetectContradictions: true}
		}},
		{"elim-only", func(m *sqo.CostModel) sqo.Options {
			return sqo.Options{Cost: m, Rules: sqo.RuleElimination | sqo.RuleClassElimination}
		}},
		{"intro-only", func(m *sqo.CostModel) sqo.Options {
			return sqo.Options{Cost: m, Rules: sqo.RuleIntroduction}
		}},
	}

	for seed := int64(1); seed <= 4; seed++ {
		cfg := sqo.DBConfig{
			Name:      fmt.Sprintf("prop-%d", seed),
			Suppliers: 6, Cargos: 72, Vehicles: 24, Drivers: 30,
			MxNLinks: 45, Seed: 100 + seed,
		}
		db, err := sqo.GenerateDatabase(cfg)
		if err != nil {
			t.Fatalf("seed %d: GenerateDatabase: %v", seed, err)
		}
		// The premise: generated data satisfies the constraints.
		if id, err := sqo.CheckCatalog(db, cat); err != nil || id != "" {
			t.Fatalf("seed %d: constraint %q violated (err %v)", seed, id, err)
		}
		model := sqo.NewCostModel(db.Schema(), db.Analyze(), sqo.DefaultWeights)
		exec := sqo.NewExecutor(db)
		gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: seed})
		queries, err := gen.Workload(12)
		if err != nil {
			t.Fatalf("seed %d: Workload: %v", seed, err)
		}

		for _, q := range queries {
			baseline, err := exec.Execute(q)
			if err != nil {
				t.Fatalf("seed %d: execute original: %v", seed, err)
			}
			want := baseline.Canonical()
			for _, v := range variants {
				opt := core.NewOptimizer(db.Schema(), core.CatalogSource{Catalog: cat}, v.opts(model))
				res, err := opt.Optimize(q)
				if err != nil {
					t.Fatalf("seed %d %s: Optimize: %v", seed, v.name, err)
				}
				if res.EmptyResult && len(want) != 0 {
					t.Errorf("seed %d %s: EmptyResult claimed but original returns %d rows\n%s",
						seed, v.name, len(want), q)
					continue
				}
				got, err := exec.Execute(res.Optimized)
				if err != nil {
					t.Fatalf("seed %d %s: execute optimized: %v\n%s", seed, v.name, err, res.Optimized)
				}
				if !reflect.DeepEqual(got.Canonical(), want) {
					t.Errorf("seed %d %s: results differ (%d vs %d rows)\noriginal:  %s\noptimized: %s",
						seed, v.name, len(got.Rows), len(want), q, res.Optimized)
				}
			}
		}
	}
}

// TestIdempotenceProperty: re-optimizing an optimized query is a no-op on
// the logistics workload.
func TestIdempotenceProperty(t *testing.T) {
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	cat := sqo.LogisticsConstraints()
	model := sqo.NewCostModel(db.Schema(), db.Analyze(), sqo.DefaultWeights)
	opt := core.NewOptimizer(db.Schema(), core.CatalogSource{Catalog: cat}, sqo.Options{Cost: model})
	gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: 9})
	queries, err := gen.Workload(15)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		first, err := opt.Optimize(q)
		if err != nil {
			t.Fatalf("first: %v", err)
		}
		second, err := opt.Optimize(first.Optimized)
		if err != nil {
			t.Fatalf("second: %v\n%s", err, first.Optimized)
		}
		if !first.Optimized.Equal(second.Optimized) {
			t.Errorf("not idempotent:\nq:  %s\n1:  %s\n2:  %s", q, first.Optimized, second.Optimized)
		}
	}
}

// TestOrderIndependenceProperty: the catalog order never changes outcomes on
// real workload queries (the paper's headline claim, at integration level).
func TestOrderIndependenceProperty(t *testing.T) {
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	cat := sqo.LogisticsConstraints()
	model := sqo.NewCostModel(db.Schema(), db.Analyze(), sqo.DefaultWeights)
	gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: 11})
	queries, err := gen.Workload(10)
	if err != nil {
		t.Fatal(err)
	}
	// Build a reversed catalog.
	all := cat.All()
	var rev []*sqo.Constraint
	for i := len(all) - 1; i >= 0; i-- {
		rev = append(rev, all[i])
	}
	revCat := sqo.MustCatalog(rev...)

	fwd := core.NewOptimizer(db.Schema(), core.CatalogSource{Catalog: cat}, sqo.Options{Cost: model})
	bwd := core.NewOptimizer(db.Schema(), core.CatalogSource{Catalog: revCat}, sqo.Options{Cost: model})
	for _, q := range queries {
		a, err := fwd.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := bwd.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Optimized.Equal(b.Optimized) {
			t.Errorf("catalog order changed the outcome:\nq: %s\na: %s\nb: %s", q, a.Optimized, b.Optimized)
		}
	}
}

// TestContradictionDetectionSound: whenever EmptyResult is reported on
// hand-built contradictory queries, the original query is indeed empty.
func TestContradictionDetectionSound(t *testing.T) {
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	cat := sqo.LogisticsConstraints()
	opt := core.NewOptimizer(db.Schema(), core.CatalogSource{Catalog: cat},
		sqo.Options{DetectContradictions: true})
	exec := sqo.NewExecutor(db)

	// oil is collected by tankers (c8), so oil + refrigerated truck is
	// provably empty.
	q := sqo.NewQuery("cargo", "vehicle").
		AddProject("cargo", "code").
		AddSelect(sqo.Eq("cargo", "desc", sqo.StringValue("oil"))).
		AddSelect(sqo.Eq("vehicle", "desc", sqo.StringValue("refrigerated truck"))).
		AddRelationship("collects")
	res, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EmptyResult {
		t.Error("oil on a refrigerated truck should be proven empty")
	}
	rows, err := exec.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 0 {
		t.Fatalf("detection unsound: %d rows", len(rows.Rows))
	}
}
