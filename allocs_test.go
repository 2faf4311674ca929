package sqo_test

// Allocation gates for the interned-symbol-space hot path (DESIGN.md
// deviation #8). The paper's economics — optimizer cost must stay far below
// execution savings — make per-query allocation a first-class regression:
// these tests fail the build if the steady-state cached path ever allocates
// again, or the uncached 17-rule path drifts past a small fixed budget.

import (
	"context"
	"testing"

	"sqo"
	"sqo/internal/core"
	"sqo/internal/datagen"
)

// uncachedAllocBudget bounds allocs/op for one full uncached optimization of
// the paper's Figure 2.3 query (measured: 19). Everything left is data that
// escapes into the Result (formulated query, trace, tagged predicates) plus
// the retrieval slice; scratch reuse covers the rest.
const uncachedAllocBudget = 32

func figure23Query() *sqo.Query {
	return sqo.NewQuery("supplier", "cargo", "vehicle").
		AddProject("vehicle", "vehicle#").
		AddProject("cargo", "desc").
		AddSelect(sqo.Eq("vehicle", "desc", sqo.StringValue("refrigerated truck"))).
		AddSelect(sqo.Eq("supplier", "name", sqo.StringValue("SFI"))).
		AddRelationship("collects").
		AddRelationship("supplies")
}

// TestCachedOptimizeZeroAllocs: after warmup, a cache-hit Engine.Optimize
// performs zero heap allocations — fingerprint hashing, cache probe and
// result return all run on the stack.
func TestCachedOptimizeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job runs this")
	}
	eng, err := sqo.NewEngine(datagen.Schema(),
		sqo.WithCatalog(datagen.Constraints()), sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := figure23Query()
	if _, err := eng.Optimize(ctx, q); err != nil {
		t.Fatal(err) // warm the cache
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := eng.Optimize(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached Engine.Optimize = %.1f allocs/op, want 0", allocs)
	}
}

// TestUncachedOptimizeAllocBudget: a full uncached optimization of the
// paper's 17-rule world stays within the fixed allocation budget, through
// both the scan-backed core optimizer and the index-backed engine.
func TestUncachedOptimizeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job runs this")
	}
	sch := datagen.Schema()
	cat := datagen.Constraints()
	q := figure23Query()

	opt := core.NewOptimizer(sch, core.CatalogSource{Catalog: cat}, sqo.Options{})
	if _, err := opt.Optimize(q); err != nil {
		t.Fatal(err) // warm the scratch pool
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := opt.Optimize(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > uncachedAllocBudget {
		t.Errorf("uncached Optimizer.Optimize = %.1f allocs/op, budget %d", allocs, uncachedAllocBudget)
	}

	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat)) // no cache: every call optimizes
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Optimize(ctx, q); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := eng.Optimize(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > uncachedAllocBudget {
		t.Errorf("uncached Engine.Optimize = %.1f allocs/op, budget %d", allocs, uncachedAllocBudget)
	}
}

// TestCanonicalHitZeroAllocs: a cache hit through the canonicalizing,
// subsuming configuration also allocates nothing — the reduction scratch is
// pooled, the canonical fingerprint streams over the input without
// materializing the canonical query, and the cache probe is the same
// comparable-key lookup the exact path uses. Guards the new lookup path to
// the same standard as TestCachedOptimizeZeroAllocs.
func TestCanonicalHitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job runs this")
	}
	eng, err := sqo.NewEngine(datagen.Schema(), sqo.WithCatalog(datagen.Constraints()),
		sqo.WithCache(sqo.CacheConfig{Capacity: 64, Subsume: true}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Optimize(ctx, figure23Query()); err != nil {
		t.Fatal(err) // warm the cache with the canonical form
	}
	// A syntactic near-duplicate: conjuncts reordered and one duplicated.
	// Canonicalization must collapse it onto the warmed slot on every call.
	variant := sqo.NewQuery("cargo", "vehicle", "supplier").
		AddProject("vehicle", "vehicle#").
		AddProject("cargo", "desc").
		AddSelect(sqo.Eq("supplier", "name", sqo.StringValue("SFI"))).
		AddSelect(sqo.Eq("vehicle", "desc", sqo.StringValue("refrigerated truck"))).
		AddSelect(sqo.Eq("vehicle", "desc", sqo.StringValue("refrigerated truck"))).
		AddRelationship("supplies").
		AddRelationship("collects")
	if _, err := eng.Optimize(ctx, variant); err != nil {
		t.Fatal(err) // warm the reduction pool
	}
	before := eng.Stats().Cache
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := eng.Optimize(ctx, variant); err != nil {
			t.Fatal(err)
		}
	})
	after := eng.Stats().Cache
	if allocs != 0 {
		t.Errorf("canonical-hit Engine.Optimize = %.1f allocs/op, want 0", allocs)
	}
	if after.CanonicalHits <= before.CanonicalHits {
		t.Errorf("variant was not served as a canonical hit: %+v -> %+v", before, after)
	}
}
