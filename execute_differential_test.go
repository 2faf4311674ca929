package sqo_test

import (
	"context"
	"slices"
	"testing"

	"sqo"
)

// The execution differential: optimize-then-execute and the opt-off baseline
// must return byte-identical canonical row multisets on every query — across
// the paper's logistics instances, the constraint-targeted workloads, and the
// 10²/10³-rule scaled worlds. Well over 1000 queries in total; semantic
// transformations that save I/O by changing answers are caught here.

// diffCell runs every query both ways on one engine and compares canonical
// rows, returning how many queries it checked.
func diffCell(t *testing.T, label string, eng *sqo.Engine, qs []*sqo.Query) int {
	t.Helper()
	ctx := context.Background()
	for _, q := range qs {
		opt, err := eng.Execute(ctx, q)
		if err != nil {
			t.Fatalf("%s: Execute %s: %v", label, q, err)
		}
		raw, err := eng.ExecuteRaw(ctx, q)
		if err != nil {
			t.Fatalf("%s: ExecuteRaw %s: %v", label, q, err)
		}
		if !slices.Equal(opt.Canonical(), raw.Canonical()) {
			t.Errorf("%s: %s: optimized rows diverge from raw rows", label, q)
		}
	}
	return len(qs)
}

// logisticsDiffEngine wires an execution engine over one generated logistics
// instance, contradiction detection on so the proven-empty path is part of
// the differential.
func logisticsDiffEngine(t *testing.T, cfg sqo.DBConfig) (*sqo.Engine, *sqo.Database) {
	t.Helper()
	db, err := sqo.GenerateDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(sqo.LogisticsConstraints()),
		sqo.WithCostModel(sqo.NewCostModel(db.Schema(), db.Analyze(), sqo.DefaultWeights)),
		sqo.WithDatabase(db),
		sqo.WithContradictionDetection(),
		sqo.WithCache(sqo.CacheConfig{Capacity: 256}))
	if err != nil {
		t.Fatal(err)
	}
	return eng, db
}

func TestExecuteDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite is slow; skipped with -short")
	}
	total := 0

	// Logistics instances: uniform path workloads across ten seeds, plus
	// the constraint-targeted and contradiction workloads.
	for _, cfg := range []sqo.DBConfig{sqo.DB1(), sqo.DB2()} {
		eng, db := logisticsDiffEngine(t, cfg)
		cat := sqo.LogisticsConstraints()
		for seed := int64(1); seed <= 10; seed++ {
			gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: seed})
			qs, err := gen.Workload(40)
			if err != nil {
				t.Fatal(err)
			}
			total += diffCell(t, cfg.Name, eng, qs)
		}
		gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: 41})
		targeted, err := gen.ConstraintWorkload()
		if err != nil {
			t.Fatal(err)
		}
		contra, err := gen.ContradictionWorkload()
		if err != nil {
			t.Fatal(err)
		}
		total += diffCell(t, cfg.Name+"-sqo", eng, append(targeted, contra...))
	}

	// Scaled worlds: catalog sizes 100 and 1000 over materialized databases.
	for _, n := range []int{100, 1000} {
		sch, cat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: n, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		db, err := sqo.GenerateScaledDatabase(sch, cat, sqo.ScaledDBConfig{Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sqo.NewEngine(sch,
			sqo.WithCatalog(cat),
			sqo.WithCostModel(sqo.NewCostModel(sch, db.Analyze(), sqo.DefaultWeights)),
			sqo.WithDatabase(db),
			sqo.WithContradictionDetection())
		if err != nil {
			t.Fatal(err)
		}
		qs, err := sqo.ScaledWorkload(sch, cat, 150, int64(n)+1)
		if err != nil {
			t.Fatal(err)
		}
		total += diffCell(t, sch.Classes()[0]+"-scaled", eng, qs)
	}

	if total < 1000 {
		t.Errorf("differential covered only %d queries, want >= 1000", total)
	}
	t.Logf("differential: %d queries byte-identical across optimized and raw execution", total)
}
