package sqo_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"sqo"
	"sqo/internal/datagen"
)

// invalidCatalog builds a catalog that parses but cannot validate against
// the logistics schema (unknown class), so buildState must reject it.
func invalidCatalog() *sqo.Catalog {
	return sqo.MustCatalog(sqo.NewConstraint("broken",
		[]sqo.Predicate{sqo.Eq("nosuchclass", "attr", sqo.StringValue("v"))},
		nil,
		sqo.Eq("vehicle", "desc", sqo.StringValue("van"))))
}

// TestSwapCatalogErrorKeepsServing pins the error-path contract of
// SwapCatalog: an invalid catalog mid-serve must leave the old generation
// serving with epoch, declared catalog and result cache completely
// untouched — the failed swap is observable only through its error. That
// holds on both branches of the mutation path: a swap compiled from scratch
// fails in validation, and a swap planned as a patch of a live lineage
// fails in planning, after which the lineage still takes updates
// incrementally.
func TestSwapCatalogErrorKeepsServing(t *testing.T) {
	eng, err := sqo.NewEngine(datagen.Schema(),
		sqo.WithCatalog(datagen.Constraints()), sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := figure23Query()
	want, err := eng.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	catBefore := eng.Catalog()
	before := eng.Stats()

	if err := eng.SwapCatalog(invalidCatalog()); err == nil {
		t.Fatal("SwapCatalog accepted a catalog that does not fit the schema")
	}
	if err := eng.SwapCatalog(nil); err == nil {
		t.Fatal("SwapCatalog accepted a nil catalog")
	}

	after := eng.Stats()
	if after.Epoch != before.Epoch {
		t.Fatalf("failed swap bumped the epoch: %d -> %d", before.Epoch, after.Epoch)
	}
	if after.CatalogSwaps != before.CatalogSwaps {
		t.Fatal("failed swap counted as a successful one")
	}
	if after.Cache.Size != before.Cache.Size {
		t.Fatalf("failed swap disturbed the cache: %d -> %d entries", before.Cache.Size, after.Cache.Size)
	}
	if eng.Catalog() != catBefore {
		t.Fatal("failed swap replaced the declared catalog")
	}
	got, err := eng.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("cache entry was not served after the failed swap (new result instance)")
	}
	if eng.Stats().Cache.Hits() != before.Cache.Hits()+1 {
		t.Fatal("post-failure Optimize did not hit the cache")
	}

	// The patch branch: the engine has taken an update, so a lineage is
	// live, and the swap adds one rule that does not fit the schema.
	if _, err := eng.UpdateCatalog(sqo.NewCatalogDelta().AddConstraints(freshRule(t))); err != nil {
		t.Fatal(err)
	}
	if want, err = eng.Optimize(ctx, q); err != nil {
		t.Fatal(err)
	}
	catBefore = eng.Catalog()
	before = eng.Stats()
	plusBad, err := sqo.NewCatalog(append(catBefore.All(), invalidCatalog().All()...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SwapCatalog(plusBad); err == nil {
		t.Fatal("SwapCatalog accepted an added rule that does not fit the schema")
	}
	if after := eng.Stats(); !reflect.DeepEqual(after, before) {
		t.Fatalf("failed patch-path swap changed the engine's stats:\nbefore %+v\nafter  %+v", before, after)
	}
	if eng.Catalog() != catBefore {
		t.Fatal("failed patch-path swap replaced the declared catalog")
	}
	if got, err := eng.Optimize(ctx, q); err != nil || got != want {
		t.Fatalf("cache entry was not served after the failed patch-path swap (err %v)", err)
	}
	rep, err := eng.UpdateCatalog(sqo.NewCatalogDelta().AddConstraints(freshRule(t)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Incremental || rep.Added != 1 || rep.Epoch != before.Epoch+1 {
		t.Fatalf("update after the failed swap: %+v, want one incremental addition at epoch %d", rep, before.Epoch+1)
	}
	diffDelta(t, "update after a failed patch-path swap", eng, scratchEngine(t, datagen.Schema(), eng.Catalog()), q)
}

// TestSwapCatalogErrorOptimizeRace hammers Optimize while failing swaps (and
// occasional successful ones) run concurrently: under -race this proves the
// error path publishes nothing — readers can never observe a half-built
// generation — and results always come from a pure generation.
func TestSwapCatalogErrorOptimizeRace(t *testing.T) {
	sch := datagen.Schema()
	catA := datagen.Constraints()
	catB := sqo.MustCatalog(catA.All()[:8]...)
	bad := invalidCatalog()

	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(catA), sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := figure23Query()
	expect := func(cat *sqo.Catalog) string {
		e, err := sqo.NewEngine(sch, sqo.WithCatalog(cat))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Optimized.String()
	}
	wantA, wantB := expect(catA), expect(catB)

	var wg sync.WaitGroup
	var failedSwaps atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := eng.Optimize(ctx, q)
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.Optimized.String(); got != wantA && got != wantB {
					t.Errorf("mixed-generation result: %s", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 120; i++ {
		switch i % 3 {
		case 0, 1: // failing swaps dominate
			if err := eng.SwapCatalog(bad); err == nil {
				t.Error("invalid swap unexpectedly succeeded")
			} else {
				failedSwaps.Add(1)
			}
		case 2:
			cat := catA
			if i%2 == 0 {
				cat = catB
			}
			if err := eng.SwapCatalog(cat); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if failedSwaps.Load() == 0 {
		t.Fatal("no swap ever failed; the error-path race never happened")
	}
}
