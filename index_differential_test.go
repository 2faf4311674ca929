package sqo_test

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"sqo"
	"sqo/internal/closure"
	"sqo/internal/core"
	"sqo/internal/symtab"
)

// reference is an optimizer the engine must agree with, built per world from
// the schema and declared catalog.
type reference struct {
	name  string
	build func(t testing.TB, sch *sqo.Schema, cat *sqo.Catalog) func(*sqo.Query) (*sqo.Result, error)
}

var (
	// catalogScan scans the declared catalog in the interned symbol space
	// core.CatalogSource compiles: retrieval differs from the engine's,
	// representation does not.
	catalogScan = reference{"catalog-scan", func(t testing.TB, sch *sqo.Schema, cat *sqo.Catalog) func(*sqo.Query) (*sqo.Result, error) {
		return core.NewOptimizer(sch, core.CatalogSource{Catalog: cat}, core.Options{}).Optimize
	}}
	// perQueryCompile scans the declared catalog and compiles, per query, a
	// symbol space of the relevant constraints plus the query's own
	// predicates, carried by a constraint the source never retrieves. No
	// column of its table is query-private, so every implication the
	// engine derives pairwise for a query-private predicate comes from
	// symtab's precomputed adjacency here.
	perQueryCompile = reference{"per-query-compile", func(t testing.TB, sch *sqo.Schema, cat *sqo.Catalog) func(*sqo.Query) (*sqo.Result, error) {
		return func(q *sqo.Query) (*sqo.Result, error) {
			relevant := sqo.MustCatalog(cat.RelevantTo(q)...)
			all := relevant.All()
			if preds := append(append([]sqo.Predicate(nil), q.Joins...), q.Selects...); len(preds) > 0 {
				all = append(all, sqo.NewConstraint("query-carrier", preds, nil, preds[0]))
			}
			syms := symtab.Compile(sch, all)
			return core.NewOptimizerSymbols(sch, core.CatalogSource{Catalog: relevant}, syms, core.Options{}).Optimize(q)
		}
	}}
	// closedCatalog optimizes over the catalog's materialized transitive
	// closure, the paper's [YuS89] preprocessing the engine skips.
	closedCatalog = reference{"closure", func(t testing.TB, sch *sqo.Schema, cat *sqo.Catalog) func(*sqo.Query) (*sqo.Result, error) {
		closed, _, _, err := closure.Materialize(cat, closure.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return core.NewOptimizer(sch, core.CatalogSource{Catalog: closed}, core.Options{}).Optimize
	}}
)

// referenceWorld pairs the default engine over a catalog with the references
// it must agree with.
type referenceWorld struct {
	eng  *sqo.Engine
	refs []reference
	opts []func(*sqo.Query) (*sqo.Result, error)
}

func newReferenceWorld(t testing.TB, sch *sqo.Schema, cat *sqo.Catalog, refs []reference) referenceWorld {
	t.Helper()
	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().ConstraintIndex.Constraints != cat.Len() {
		t.Fatalf("engine did not index its %d constraints", cat.Len())
	}
	w := referenceWorld{eng: eng, refs: refs}
	for _, ref := range refs {
		w.opts = append(w.opts, ref.build(t, sch, cat))
	}
	return w
}

// check optimizes one query through the engine and every reference and
// fails on any divergence: the formulated query must be byte-identical, and
// EmptyResult and the final predicate classification equal.
func (w referenceWorld) check(t testing.TB, label string, q *sqo.Query) {
	t.Helper()
	got, err := w.eng.Optimize(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: engine optimize: %v\n%s", label, err, q)
	}
	for i, ref := range w.refs {
		want, err := w.opts[i](q)
		if err != nil {
			t.Fatalf("%s: %s reference optimize: %v\n%s", label, ref.name, err, q)
		}
		if a, b := got.Optimized.String(), want.Optimized.String(); a != b {
			t.Fatalf("%s: engine and %s reference diverge\nquery:  %s\nengine: %s\n%s: %s", label, ref.name, q, a, ref.name, b)
		}
		if got.EmptyResult != want.EmptyResult {
			t.Fatalf("%s: EmptyResult diverges from the %s reference for %s", label, ref.name, q)
		}
		if !reflect.DeepEqual(got.FinalTags(), want.FinalTags()) {
			t.Fatalf("%s: final tags diverge from the %s reference for %s\nengine: %v\n%s: %v",
				label, ref.name, q, got.FinalTags(), ref.name, want.FinalTags())
		}
	}
}

// referenceSweep checks the engine against refs across two sqogen workloads
// on the paper's logistics world and two query seeds on each of the scaled
// 10² and 10³ worlds: 2,080 generated queries against every reference.
func referenceSweep(t *testing.T, refs ...reference) {
	if testing.Short() {
		t.Skip("differential sweep")
	}
	total := 0

	// The paper's logistics world, with the exact workload machinery the
	// evaluation (sqogen/sqobench) uses.
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	cat := sqo.LogisticsConstraints()
	logistics := newReferenceWorld(t, db.Schema(), cat, refs)
	for _, seed := range []int64{41, 53} {
		workload, err := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: seed}).Workload(240)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range workload {
			logistics.check(t, "logistics", q)
		}
		total += len(workload)
	}

	// Scaled worlds at 10² and 10³ constraints.
	for _, n := range []int{100, 1000} {
		label := fmt.Sprintf("scaled-%d", n)
		sch, scat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: n, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		w := newReferenceWorld(t, sch, scat, refs)
		for _, seed := range []int64{17, 29} {
			qs, err := sqo.ScaledWorkload(sch, scat, 400, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				w.check(t, label, q)
			}
			total += len(qs)
		}
	}

	if total < 2000 {
		t.Fatalf("differential sweep covered only %d queries, want >= 2000", total)
	}
}

// TestEngineReferenceDifferential proves the engine — inverted index over
// the catalog's symbol space, declared catalog — byte-identical to a
// catalog scan over a per-query symbol space (perQueryCompile) and to
// optimization over the materialized closure. The closure reference is the
// standing proof that the serving path need not materialize closure
// (DESIGN.md deviation #13).
func TestEngineReferenceDifferential(t *testing.T) {
	referenceSweep(t, perQueryCompile, closedCatalog)
}

// TestIndexScanDifferential isolates retrieval: index-backed and scan-backed
// optimization in the same interned symbol space must agree.
func TestIndexScanDifferential(t *testing.T) {
	referenceSweep(t, catalogScan)
}

// TestEngineReferenceDifferentialLarge is the nightly 10⁴-constraint
// differential: a thousand queries against a ten-thousand-rule catalog.
// Gated behind SQO_LARGE_CATALOG because the scan reference is deliberately
// slow — that being the point of the index.
func TestEngineReferenceDifferentialLarge(t *testing.T) {
	if os.Getenv("SQO_LARGE_CATALOG") == "" {
		t.Skip("set SQO_LARGE_CATALOG=1 to run the 1e4 differential")
	}
	sch, cat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: 10000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sqo.ScaledWorkload(sch, cat, 1000, 23)
	if err != nil {
		t.Fatal(err)
	}
	w := newReferenceWorld(t, sch, cat, []reference{perQueryCompile, closedCatalog})
	for _, q := range qs {
		w.check(t, "scaled-10000", q)
	}
}

// TestIndexSublinearSpeedup is the acceptance bar of the index layer: on a
// 10⁴-constraint catalog, the engine's index-backed optimization must beat a
// core optimizer scanning the catalog by at least 5x in the same run. The measured gap is typically an
// order of magnitude or more; 5x leaves room for noisy CI machines.
func TestIndexSublinearSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing ratio; the non-race CI job runs this")
	}
	sch, cat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: 10000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sqo.ScaledWorkload(sch, cat, 64, 31)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	scanned := core.NewOptimizer(sch, core.CatalogSource{Catalog: cat}, core.Options{})
	ctx := context.Background()
	indexed := func(q *sqo.Query) (*sqo.Result, error) { return eng.Optimize(ctx, q) }

	pass := func(optimize func(*sqo.Query) (*sqo.Result, error)) time.Duration {
		start := time.Now()
		for _, q := range qs {
			if _, err := optimize(q); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	// Warm up both (allocator, branch caches), then take the best of three
	// passes each to shed scheduler noise.
	pass(indexed)
	pass(scanned.Optimize)
	best := func(optimize func(*sqo.Query) (*sqo.Result, error)) time.Duration {
		b := pass(optimize)
		for i := 0; i < 2; i++ {
			if d := pass(optimize); d < b {
				b = d
			}
		}
		return b
	}
	idx, scan := best(indexed), best(scanned.Optimize)
	t.Logf("10⁴-constraint catalog, %d queries/pass: index %v, scan %v (%.1fx)",
		len(qs), idx, scan, float64(scan)/float64(idx))
	if scan < idx*5 {
		t.Errorf("index-backed optimization is only %.1fx faster than the scan baseline, want >= 5x (index %v, scan %v)",
			float64(scan)/float64(idx), idx, scan)
	}
}
