package sqo_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"sqo"
	"sqo/internal/datagen"
)

// TestSwapKeepsUnaffectedEntries: a swap is a delta, so it keeps every
// cached result the delta cannot affect. A cache warmed on a 10³-rule world
// is swapped to the same catalog plus rules on classes no cached query
// holds; every cached entry must still hit, return the same *Result, and
// equal a cold build of the new catalog.
func TestSwapKeepsUnaffectedEntries(t *testing.T) {
	sch, cat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: 1000, Seed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sqo.ScaledWorkload(sch, cat, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	classes := sch.Classes()
	free := []string{classes[0], classes[len(classes)/2], classes[len(classes)-1]}
	var qs []*sqo.Query
	for _, q := range pool {
		if !slices.ContainsFunc(free, q.HasClass) {
			qs = append(qs, q)
		}
	}
	if len(qs) < 100 {
		t.Fatalf("only %d of %d queries avoid classes %v", len(qs), len(pool), free)
	}
	plus, err := sqo.NewCatalog(cat.All()...)
	if err != nil {
		t.Fatal(err)
	}
	for i, cl := range free {
		for k := 0; k < 3; k++ {
			if err := plus.Add(sqo.NewConstraint(fmt.Sprintf("free%d-%d", i, k),
				[]sqo.Predicate{sqo.Eq(cl, "kind", sqo.StringValue(fmt.Sprintf("free-%d", k)))}, nil,
				sqo.Sel(cl, "load", sqo.OpLE, sqo.IntValue(int64(7000+k))))); err != nil {
				t.Fatal(err)
			}
		}
	}

	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat),
		sqo.WithCache(sqo.CacheConfig{Capacity: 4096, Canonicalize: true, Subsume: true}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cached := make([]*sqo.Result, len(qs))
	for pass := 0; pass < 2; pass++ {
		for i, q := range qs {
			if cached[i], err = eng.Optimize(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := eng.Stats()

	if err := eng.SwapCatalog(plus); err != nil {
		t.Fatal(err)
	}
	mid := eng.Stats()
	if mid.Epoch != before.Epoch+1 || mid.CatalogSwaps != before.CatalogSwaps+1 {
		t.Fatalf("swap published epoch %d (swaps %d), want %d (%d)", mid.Epoch, mid.CatalogSwaps, before.Epoch+1, before.CatalogSwaps+1)
	}
	if mid.Cache.Size != before.Cache.Size || mid.Cache.UpdatePurged != before.Cache.UpdatePurged {
		t.Fatalf("swap dropped entries it cannot affect: %d -> %d entries, %d purged",
			before.Cache.Size, mid.Cache.Size, mid.Cache.UpdatePurged-before.Cache.UpdatePurged)
	}

	ref, err := sqo.NewEngine(sch, sqo.WithCatalog(plus))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		got, err := eng.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != cached[i] {
			t.Fatalf("query %d: the swap did not keep its cached result\n%s", i, q)
		}
		cq, _ := sqo.CanonicalizeQuery(q)
		want, err := ref.Optimize(ctx, cq)
		if err != nil {
			t.Fatal(err)
		}
		if got.Optimized.String() != want.Optimized.String() || got.EmptyResult != want.EmptyResult ||
			!reflect.DeepEqual(got.Trace, want.Trace) {
			t.Fatalf("query %d: kept entry diverges from a cold build\nkept: %s\ncold: %s", i, got.Optimized, want.Optimized)
		}
	}
	after := eng.Stats()
	if hits := after.Cache.Hits() - mid.Cache.Hits(); hits != int64(len(qs)) || after.Cache.Misses != mid.Cache.Misses {
		t.Fatalf("%d hits and %d misses after the swap, want %d and 0",
			hits, after.Cache.Misses-mid.Cache.Misses, len(qs))
	}
}

// TestNewEngineReleasesItsInputs: only construction reads the WithCatalog
// catalog and the WithSnapshot snapshot, so once a swap to a disjoint
// catalog has replaced the first generation, neither may stay reachable
// from the engine.
func TestNewEngineReleasesItsInputs(t *testing.T) {
	sch := datagen.Schema()
	var snapData bytes.Buffer
	if _, err := mustEngine(t).SaveSnapshot(&snapData); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		input func(t *testing.T, freed chan struct{}) sqo.EngineOption
	}{
		{"catalog", func(t *testing.T, freed chan struct{}) sqo.EngineOption {
			cat := datagen.Constraints()
			runtime.SetFinalizer(cat, func(*sqo.Catalog) { close(freed) })
			return sqo.WithCatalog(cat)
		}},
		{"snapshot", func(t *testing.T, freed chan struct{}) sqo.EngineOption {
			snap, err := sqo.ReadSnapshot(bytes.NewReader(snapData.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(snap, func(*sqo.Snapshot) { close(freed) })
			return sqo.WithSnapshot(snap)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			freed := make(chan struct{})
			eng, err := sqo.NewEngine(sch, tc.input(t, freed))
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.SwapCatalog(sqo.MustCatalog(freshRule(t))); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				select {
				case <-freed:
					runtime.KeepAlive(eng)
					return
				case <-time.After(10 * time.Millisecond):
				}
				if time.Now().After(deadline) {
					t.Fatalf("the %s passed to NewEngine is still reachable after a swap replaced it", tc.name)
				}
			}
		})
	}
}
