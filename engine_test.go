package sqo_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sqo"
	"sqo/internal/core"
)

// engineWorld builds the shared test fixture: the DB1 logistics instance,
// its constraint catalog, a statistics-driven cost model, and a workload.
func engineWorld(t testing.TB, queries int) (*sqo.Database, *sqo.Catalog, *sqo.CostModel, []*sqo.Query) {
	t.Helper()
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	cat := sqo.LogisticsConstraints()
	model := sqo.NewCostModel(db.Schema(), db.Analyze(), sqo.DefaultWeights)
	gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: 13})
	workload, err := gen.Workload(queries)
	if err != nil {
		t.Fatal(err)
	}
	return db, cat, model, workload
}

// TestEngineMatchesOptimizer: the Engine is a front door, not a different
// algorithm — its results must be byte-identical to a raw Optimizer's.
func TestEngineMatchesOptimizer(t *testing.T) {
	db, cat, model, workload := engineWorld(t, 12)
	opt := core.NewOptimizer(db.Schema(), core.CatalogSource{Catalog: cat}, sqo.Options{Cost: model})
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(cat),
		sqo.WithCostModel(model),
		sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, q := range workload {
		want, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Optimized.Signature() != want.Optimized.Signature() {
			t.Errorf("query %d: engine %s, optimizer %s", i, got.Optimized, want.Optimized)
		}
	}
}

// TestEngineParallelBatch drives ≥8 goroutines through one shared Engine via
// OptimizeBatch — two concurrent batches on an 8-worker pool — and checks
// every result against the serial answers. Run with -race.
func TestEngineParallelBatch(t *testing.T) {
	db, cat, model, workload := engineWorld(t, 24)
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(cat),
		sqo.WithCostModel(model),
		sqo.WithCache(sqo.CacheConfig{Capacity: 128}),
		sqo.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := make([]string, len(workload))
	for i, q := range workload {
		res, err := eng.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Optimized.Signature()
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for round := 0; round < 4; round++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, err := eng.OptimizeBatch(ctx, workload)
			if err != nil {
				errs <- err
				return
			}
			for i, res := range results {
				if res == nil || res.Optimized.Signature() != want[i] {
					errs <- fmt.Errorf("batch result %d diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Optimizations < int64(5*len(workload)) {
		t.Errorf("Optimizations = %d, want >= %d", st.Optimizations, 5*len(workload))
	}
}

// TestEngineCache: a repeated query is served from the cache, including when
// its predicate lists are ordered differently (fingerprint normalization).
func TestEngineCache(t *testing.T) {
	db, cat, model, _ := engineWorld(t, 1)
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(cat),
		sqo.WithCostModel(model),
		sqo.WithCache(sqo.CacheConfig{Capacity: 8}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	build := func(flip bool) *sqo.Query {
		p1 := sqo.Eq("vehicle", "desc", sqo.StringValue("refrigerated truck"))
		p2 := sqo.Eq("supplier", "name", sqo.StringValue("SFI"))
		if flip {
			p1, p2 = p2, p1
		}
		return sqo.NewQuery("supplier", "cargo", "vehicle").
			AddProject("vehicle", "vehicle#").
			AddSelect(p1).
			AddSelect(p2).
			AddRelationship("collects").
			AddRelationship("supplies")
	}
	if sqo.Fingerprint(build(false)) != sqo.Fingerprint(build(true)) {
		t.Fatal("fingerprints should be insensitive to predicate ordering")
	}

	first, err := eng.Optimize(ctx, build(false))
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Optimize(ctx, build(true))
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("reordered repeat of the same query should be served from the cache")
	}
	st := eng.Stats()
	if st.Cache.Hits() != 1 || st.Cache.Misses != 1 || st.Cache.Size != 1 {
		t.Errorf("stats = hits %d / misses %d / size %d, want 1/1/1",
			st.Cache.Hits(), st.Cache.Misses, st.Cache.Size)
	}
}

// TestEngineCacheColdStampede: many goroutines race the same query into a
// cold cache, so concurrent put-refreshes overlap concurrent gets of one
// entry. Run with -race.
func TestEngineCacheColdStampede(t *testing.T) {
	db, cat, model, workload := engineWorld(t, 1)
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(cat),
		sqo.WithCostModel(model),
		sqo.WithCache(sqo.CacheConfig{Capacity: 8}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := workload[0]
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := eng.Optimize(ctx, q)
				if err != nil {
					errs <- err
					return
				}
				if res == nil || res.Optimized == nil {
					errs <- errors.New("nil result from cache stampede")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEngineCacheEviction: the cache is a bounded LRU, not a leak.
func TestEngineCacheEviction(t *testing.T) {
	db, cat, model, workload := engineWorld(t, 12)
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(cat),
		sqo.WithCostModel(model),
		sqo.WithCache(sqo.CacheConfig{Capacity: 4}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range workload {
		if _, err := eng.Optimize(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Cache.Size > 4 {
		t.Errorf("Cache.Size = %d, capacity 4", st.Cache.Size)
	}
	if st.Cache.Evictions == 0 {
		t.Error("expected evictions after overflowing a 4-entry cache with 12 queries")
	}
}

// TestEngineSwapCatalog: SwapCatalog atomically changes what the optimizer
// knows and invalidates the cache, so a cached transformation is never
// served against the new catalog.
func TestEngineSwapCatalog(t *testing.T) {
	db, cat, model, _ := engineWorld(t, 1)
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(cat),
		sqo.WithCostModel(model),
		sqo.WithCache(sqo.CacheConfig{Capacity: 8}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := sqo.NewQuery("supplier", "cargo", "vehicle").
		AddProject("vehicle", "vehicle#").
		AddSelect(sqo.Eq("vehicle", "desc", sqo.StringValue("refrigerated truck"))).
		AddSelect(sqo.Eq("supplier", "name", sqo.StringValue("SFI"))).
		AddRelationship("collects").
		AddRelationship("supplies")

	withKnowledge, err := eng.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(withKnowledge.Trace) == 0 {
		t.Fatal("fixture query should fire transformations under the logistics catalog")
	}

	if err := eng.SwapCatalog(sqo.MustCatalog()); err != nil {
		t.Fatal(err)
	}
	bare, err := eng.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if bare == withKnowledge {
		t.Fatal("cache must be invalidated by SwapCatalog")
	}
	if len(bare.Trace) != 0 {
		t.Errorf("no constraints, yet %d transformations fired", len(bare.Trace))
	}
	st := eng.Stats()
	if st.CatalogSwaps != 1 || st.Epoch != 1 {
		t.Errorf("swaps %d epoch %d, want 1/1", st.CatalogSwaps, st.Epoch)
	}

	// Swap back: the engine serves the old knowledge again (fresh entry,
	// same transformations).
	if err := eng.SwapCatalog(cat); err != nil {
		t.Fatal(err)
	}
	again, err := eng.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if again.Optimized.Signature() != withKnowledge.Optimized.Signature() {
		t.Error("swapping the original catalog back should restore the optimization")
	}

	// An invalid catalog must be rejected without disturbing the engine.
	bad := sqo.MustCatalog(sqo.NewConstraint("zz",
		nil, nil, sqo.Eq("nosuch", "attr", sqo.IntValue(1))))
	if err := eng.SwapCatalog(bad); err == nil {
		t.Fatal("swapping an invalid catalog should fail")
	}
	if _, err := eng.Optimize(ctx, q); err != nil {
		t.Errorf("engine should keep serving after a rejected swap: %v", err)
	}
}

// TestEngineSwapUnderLoad: catalog hot-swaps race a full-tilt OptimizeBatch
// without panics, races, or wrong-catalog results leaking through the cache.
func TestEngineSwapUnderLoad(t *testing.T) {
	db, cat, model, workload := engineWorld(t, 16)
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(cat),
		sqo.WithCostModel(model),
		sqo.WithCache(sqo.CacheConfig{Capacity: 64}),
		sqo.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			var next *sqo.Catalog
			if i%2 == 0 {
				next = sqo.MustCatalog()
			} else {
				next = cat
			}
			if err := eng.SwapCatalog(next); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 6; round++ {
		if _, err := eng.OptimizeBatch(ctx, workload); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if st := eng.Stats(); st.CatalogSwaps != 10 {
		t.Errorf("CatalogSwaps = %d, want 10", st.CatalogSwaps)
	}
}

// TestEngineContextCancellation: a dead context aborts both entry points
// with ctx.Err().
func TestEngineContextCancellation(t *testing.T) {
	db, cat, model, workload := engineWorld(t, 8)
	eng, err := sqo.NewEngine(db.Schema(), sqo.WithCatalog(cat), sqo.WithCostModel(model))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Optimize(ctx, workload[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("Optimize error = %v, want context.Canceled", err)
	}
	if _, err := eng.OptimizeBatch(ctx, workload); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimizeBatch error = %v, want context.Canceled", err)
	}
}

// TestEngineBatchError: one invalid query fails the batch with a positional
// error and no partial results.
func TestEngineBatchError(t *testing.T) {
	db, cat, model, workload := engineWorld(t, 4)
	eng, err := sqo.NewEngine(db.Schema(), sqo.WithCatalog(cat), sqo.WithCostModel(model))
	if err != nil {
		t.Fatal(err)
	}
	qs := append(append([]*sqo.Query(nil), workload...), sqo.NewQuery("nosuchclass"))
	results, err := eng.OptimizeBatch(context.Background(), qs)
	if err == nil {
		t.Fatal("batch with an invalid query should fail")
	}
	if results != nil {
		t.Error("failed batch should not return partial results")
	}
}

// TestEngineDefaultDeadline: WithDefaultDeadline bounds deadline-less calls
// without touching contexts that already carry one.
func TestEngineDefaultDeadline(t *testing.T) {
	db, cat, model, workload := engineWorld(t, 1)
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(cat),
		sqo.WithCostModel(model),
		sqo.WithDefaultDeadline(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	// The 1ns default deadline expires before the transformation loop's
	// first context check.
	if _, err := eng.Optimize(context.Background(), workload[0]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from the default", err)
	}
	// An explicit (generous) deadline wins over the default.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := eng.Optimize(ctx, workload[0]); err != nil {
		t.Fatalf("explicit deadline should override the default: %v", err)
	}
}

// TestEngineWorkers: the resolved pool width is observable, for serving
// layers that size dispatch structures off it.
func TestEngineWorkers(t *testing.T) {
	db, cat, _, _ := engineWorld(t, 1)
	eng, err := sqo.NewEngine(db.Schema(), sqo.WithCatalog(cat), sqo.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	eng, err = sqo.NewEngine(db.Schema(), sqo.WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Workers(); got < 1 {
		t.Fatalf("default Workers() = %d, want >= 1", got)
	}
}

// TestNewEngineValidation: construction rejects misconfiguration up front.
func TestNewEngineValidation(t *testing.T) {
	db, cat, _, _ := engineWorld(t, 1)
	if _, err := sqo.NewEngine(nil, sqo.WithCatalog(cat)); err == nil {
		t.Error("nil schema should be rejected")
	}
	if _, err := sqo.NewEngine(db.Schema()); err == nil {
		t.Error("missing catalog should be rejected")
	}
}

// BenchmarkEngineRepeatedWorkload measures the amortization the Engine
// exists for: one warm pass over a repeated workload, cached vs uncached.
// The cached path must be measurably faster — it answers from the LRU
// instead of re-running the O(m·n) transformation table.
func BenchmarkEngineRepeatedWorkload(b *testing.B) {
	db, cat, model, workload := engineWorld(b, 16)
	ctx := context.Background()
	run := func(b *testing.B, opts ...sqo.EngineOption) {
		opts = append([]sqo.EngineOption{
			sqo.WithCatalog(cat), sqo.WithCostModel(model)}, opts...)
		eng, err := sqo.NewEngine(db.Schema(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		// Warm pass so the cached variant measures steady-state hits.
		for _, q := range workload {
			if _, err := eng.Optimize(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range workload {
				if _, err := eng.Optimize(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b) })
	b.Run("cached", func(b *testing.B) { run(b, sqo.WithCache(sqo.CacheConfig{Capacity: 64})) })
}
