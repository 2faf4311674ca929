package sqo

import (
	"context"
	"testing"
)

// TestSwapPatchOrRebuild pins both sides of the one patch-or-rebuild rule
// for swaps at 10³ rules: a one-rule swap patches (the lineage is seeded and
// the cache keeps its entries), and a full replacement rebuilds (the lineage
// is reset, the cache emptied, and the engine serves the new catalog
// itself).
func TestSwapPatchOrRebuild(t *testing.T) {
	sch, cat, err := GenerateScaledWorld(ScaledConfig{Constraints: 1000, Seed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Same schema shape, other rules: a full replacement.
	_, other, err := GenerateScaledWorld(ScaledConfig{Constraints: 1000, Seed: 1001})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ScaledWorkload(sch, cat, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(sch, WithCatalog(cat), WithCache(CacheConfig{Capacity: 256}))
	if err != nil {
		t.Fatal(err)
	}
	warm := func() {
		for _, q := range qs {
			if _, err := eng.Optimize(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm()

	plus, err := NewCatalog(cat.All()...)
	if err != nil {
		t.Fatal(err)
	}
	cl := sch.Classes()[0]
	if err := plus.Add(NewConstraint("one", []Predicate{Eq(cl, "kind", StringValue("one"))}, nil,
		Sel(cl, "load", OpLE, IntValue(9000)))); err != nil {
		t.Fatal(err)
	}
	if err := eng.SwapCatalog(plus); err != nil {
		t.Fatal(err)
	}
	if eng.mut == nil || eng.idxLin == nil {
		t.Fatal("a one-rule swap rebuilt: no lineage was seeded")
	}
	if st := eng.state.Load(); st.epoch != 1 || st.gen.Live() != 1001 || st.gen.Dead() != 0 || eng.cache.len() == 0 {
		t.Fatalf("one-rule swap: epoch %d, %d live, %d dead, %d cached entries; want a patch keeping entries",
			st.epoch, st.gen.Live(), st.gen.Dead(), eng.cache.len())
	}

	warm()
	if err := eng.SwapCatalog(other); err != nil {
		t.Fatal(err)
	}
	if eng.mut != nil || eng.idxLin != nil {
		t.Fatal("a full replacement patched: the lineage was not reset")
	}
	st := eng.state.Load()
	if st.epoch != 2 || st.gen.Dead() != 0 || eng.cache.len() != 0 || eng.Catalog() != other {
		t.Fatalf("full replacement: epoch %d, %d dead, %d cached entries, serves its own catalog %v; want a rebuild",
			st.epoch, st.gen.Dead(), eng.cache.len(), eng.Catalog() == other)
	}
	if got := eng.Stats().CatalogSwaps; got != 2 {
		t.Fatalf("CatalogSwaps = %d, want 2", got)
	}
}
