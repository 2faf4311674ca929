package sqo_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"sqo"
)

// execEngine builds an engine over the DB1 logistics instance with end-to-end
// execution enabled.
func execEngine(t testing.TB, extra ...sqo.EngineOption) (*sqo.Engine, *sqo.Database) {
	t.Helper()
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]sqo.EngineOption{
		sqo.WithCatalog(sqo.LogisticsConstraints()),
		sqo.WithCostModel(sqo.NewCostModel(db.Schema(), db.Analyze(), sqo.DefaultWeights)),
		sqo.WithDatabase(db),
	}, extra...)
	eng, err := sqo.NewEngine(db.Schema(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng, db
}

// TestExecuteRequiresDatabase: every execution path of an engine built
// without WithDatabase fails up front, and CanExecute says so.
func TestExecuteRequiresDatabase(t *testing.T) {
	db, cat, model, workload := engineWorld(t, 1)
	_ = db
	eng, err := sqo.NewEngine(sqo.LogisticsSchema(), sqo.WithCatalog(cat), sqo.WithCostModel(model))
	if err != nil {
		t.Fatal(err)
	}
	if eng.CanExecute() {
		t.Error("CanExecute = true without WithDatabase")
	}
	ctx := context.Background()
	if _, err := eng.Execute(ctx, workload[0]); err == nil {
		t.Error("Execute should fail without a database")
	}
	if _, err := eng.ExecuteRaw(ctx, workload[0]); err == nil {
		t.Error("ExecuteRaw should fail without a database")
	}
	if _, err := eng.ExecuteBatch(ctx, workload); err == nil {
		t.Error("ExecuteBatch should fail without a database")
	}
}

// TestExecuteMatchesRaw: optimize-then-execute returns the same row multiset
// as the opt-off baseline on every workload query, and the engine's serving
// counters account for every run.
func TestExecuteMatchesRaw(t *testing.T) {
	eng, db := execEngine(t)
	gen := sqo.NewWorkloadGenerator(db, sqo.LogisticsConstraints(), sqo.WorkloadOptions{Seed: 7})
	workload, err := gen.Workload(20)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range workload {
		opt, err := eng.Execute(ctx, q)
		if err != nil {
			t.Fatalf("Execute %s: %v", q, err)
		}
		raw, err := eng.ExecuteRaw(ctx, q)
		if err != nil {
			t.Fatalf("ExecuteRaw %s: %v", q, err)
		}
		if !slices.Equal(opt.Canonical(), raw.Canonical()) {
			t.Errorf("%s: optimized rows %v != raw rows %v", q, opt.Canonical(), raw.Canonical())
		}
		if opt.Opt == nil {
			t.Errorf("%s: execution lost its optimization result", q)
		}
		if raw.Opt != nil {
			t.Errorf("%s: raw execution carries an optimization", q)
		}
	}
	st := eng.Stats()
	if want := int64(2 * len(workload)); st.Executions != want {
		t.Errorf("Executions = %d, want %d", st.Executions, want)
	}
	if st.ExecTuplesScanned == 0 || st.ExecPagesScanned == 0 {
		t.Errorf("execution counters empty: %+v", st)
	}
}

// TestExecuteProvenEmpty: a query contradicting the catalog executes with
// zero physical I/O once contradiction detection is on.
func TestExecuteProvenEmpty(t *testing.T) {
	eng, db := execEngine(t, sqo.WithContradictionDetection())
	gen := sqo.NewWorkloadGenerator(db, sqo.LogisticsConstraints(), sqo.WorkloadOptions{Seed: 41})
	contra, err := gen.ContradictionWorkload()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range contra {
		res, err := eng.Execute(ctx, q)
		if err != nil {
			t.Fatalf("Execute %s: %v", q, err)
		}
		if !res.EmptyProven {
			t.Errorf("%s: not proven empty", q)
			continue
		}
		if res.TuplesScanned != 0 || res.Meter != (sqo.Meter{}) {
			t.Errorf("%s: proven-empty execution did physical work: %+v", q, res.Meter)
		}
		// The baseline agrees the answer is empty — it just pays for it.
		raw, err := eng.ExecuteRaw(ctx, q)
		if err != nil {
			t.Fatalf("ExecuteRaw %s: %v", q, err)
		}
		if len(raw.Rows) != 0 {
			t.Errorf("%s: raw execution returned %d rows for a proven-empty query", q, len(raw.Rows))
		}
		if raw.TuplesScanned == 0 {
			t.Errorf("%s: raw baseline scanned nothing; contradiction detection saved nothing", q)
		}
	}
}

// TestExecuteBatch: the pooled path returns positionally aligned results
// identical to sequential Execute.
func TestExecuteBatch(t *testing.T) {
	eng, db := execEngine(t, sqo.WithWorkers(4))
	gen := sqo.NewWorkloadGenerator(db, sqo.LogisticsConstraints(), sqo.WorkloadOptions{Seed: 11})
	workload, err := gen.Workload(12)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	batch, err := eng.ExecuteBatch(ctx, workload)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(workload) {
		t.Fatalf("batch returned %d results for %d queries", len(batch), len(workload))
	}
	for i, q := range workload {
		want, err := eng.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(batch[i].Canonical(), want.Canonical()) {
			t.Errorf("query %d: batch rows diverge from sequential Execute", i)
		}
	}
	if out, err := eng.ExecuteBatch(ctx, nil); err != nil || out != nil {
		t.Errorf("empty batch = %v, %v", out, err)
	}
}

// TestExecuteBatchError: one invalid query fails the whole batch, matching
// OptimizeBatch's fail-fast contract.
func TestExecuteBatchError(t *testing.T) {
	eng, db := execEngine(t, sqo.WithWorkers(4))
	gen := sqo.NewWorkloadGenerator(db, sqo.LogisticsConstraints(), sqo.WorkloadOptions{Seed: 11})
	workload, err := gen.Workload(6)
	if err != nil {
		t.Fatal(err)
	}
	workload[3] = sqo.NewQuery("ghost").AddProject("ghost", "name")
	if _, err := eng.ExecuteBatch(context.Background(), workload); err == nil {
		t.Error("batch with an invalid query should fail")
	}
}

// TestExecuteCacheAware: repeated Execute calls reuse the cached optimization
// but still run the query — executions count, cache hits count.
func TestExecuteCacheAware(t *testing.T) {
	eng, db := execEngine(t, sqo.WithCache(sqo.CacheConfig{Capacity: 16}))
	gen := sqo.NewWorkloadGenerator(db, sqo.LogisticsConstraints(), sqo.WorkloadOptions{Seed: 3})
	workload, err := gen.Workload(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := eng.Execute(ctx, workload[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Execute(ctx, workload[0])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Canonical(), b.Canonical()) {
		t.Error("cached optimization changed the execution's rows")
	}
	st := eng.Stats()
	if st.Cache.Hits() == 0 {
		t.Errorf("no cache hit on the second Execute: %+v", st)
	}
	if st.Executions != 2 {
		t.Errorf("Executions = %d, want 2 (cache serves the optimization, not the rows)", st.Executions)
	}
}

// TestExecuteCancellation: a canceled context aborts the optimize-then-
// execute pipeline.
func TestExecuteCancellation(t *testing.T) {
	eng, db := execEngine(t)
	gen := sqo.NewWorkloadGenerator(db, sqo.LogisticsConstraints(), sqo.WorkloadOptions{Seed: 3})
	workload, err := gen.Workload(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Execute(ctx, workload[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestEndToEndTupleReduction is the PR's gated speedup claim: on the paper's
// logistics world, over the constraint-targeted workload (one query per
// catalog constraint exercising its transformation, plus one provably-empty
// variant per eligible constraint), optimized execution examines at least 2x
// fewer tuples than the opt-off baseline — meter-verified, not estimated.
// sqobench -exp endtoend emits the same numbers as the "logistics-sqo" row.
func TestEndToEndTupleReduction(t *testing.T) {
	eng, db := execEngine(t, sqo.WithContradictionDetection())
	gen := sqo.NewWorkloadGenerator(db, sqo.LogisticsConstraints(), sqo.WorkloadOptions{Seed: 41})
	targeted, err := gen.ConstraintWorkload()
	if err != nil {
		t.Fatal(err)
	}
	contra, err := gen.ContradictionWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if len(contra) == 0 {
		t.Fatal("no contradiction queries; the catalog lost its negatable consequents")
	}
	targeted = append(targeted, contra...)

	ctx := context.Background()
	var optTuples, rawTuples int64
	for _, q := range targeted {
		opt, err := eng.Execute(ctx, q)
		if err != nil {
			t.Fatalf("Execute %s: %v", q, err)
		}
		raw, err := eng.ExecuteRaw(ctx, q)
		if err != nil {
			t.Fatalf("ExecuteRaw %s: %v", q, err)
		}
		if !slices.Equal(opt.Canonical(), raw.Canonical()) {
			t.Fatalf("%s: optimization changed the answer", q)
		}
		optTuples += opt.TuplesScanned
		rawTuples += raw.TuplesScanned
	}
	if optTuples == 0 {
		t.Fatal("optimized executions scanned nothing at all; meters broken?")
	}
	ratio := float64(rawTuples) / float64(optTuples)
	t.Logf("targeted workload: %d queries, raw %d tuples, optimized %d tuples (%.2fx)",
		len(targeted), rawTuples, optTuples, ratio)
	if ratio < 2 {
		t.Errorf("tuple reduction = %.2fx (raw %d / opt %d), want >= 2x",
			ratio, rawTuples, optTuples)
	}
}
