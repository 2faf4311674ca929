package sqo_test

import (
	"context"
	"sync"
	"testing"

	"sqo"
)

// TestSwapCatalogOptimizeRace swaps between two catalogs while queries
// optimize concurrently, asserting every result is exactly what one of the
// two catalog generations produces in isolation — a query must never observe
// the catalog of one generation paired with the constraint index (or derived
// state) of another. The engine's immutable-generation design makes this
// hold by construction; this test is the regression guard, and is meaningful
// under -race (CI runs it so).
func TestSwapCatalogOptimizeRace(t *testing.T) {
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	sch := db.Schema()
	catA := sqo.LogisticsConstraints()
	// Catalog B drops the tail of the catalog (c9…c17), changing which
	// transformations fire for the probe queries below.
	all := catA.All()
	catB := sqo.MustCatalog(all[:8]...)

	gen := sqo.NewWorkloadGenerator(db, catA, sqo.WorkloadOptions{Seed: 21})
	probes, err := gen.Workload(12)
	if err != nil {
		t.Fatal(err)
	}

	// Expected outcomes per generation, from isolated engines.
	expect := func(cat *sqo.Catalog) []string {
		e, err := sqo.NewEngine(sch, sqo.WithCatalog(cat))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(probes))
		for i, q := range probes {
			res, err := e.Optimize(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res.Optimized.String()
		}
		return out
	}
	wantA, wantB := expect(catA), expect(catB)
	differs := false
	for i := range probes {
		if wantA[i] != wantB[i] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("probe workload cannot distinguish the two catalogs; the race assertion would be vacuous")
	}

	e, err := sqo.NewEngine(sch, sqo.WithCatalog(catA), sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	if err != nil {
		t.Fatal(err)
	}

	const workers = 6
	const iters = 150
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	ctx := context.Background()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (w + i) % len(probes)
				res, err := e.Optimize(ctx, probes[qi])
				if err != nil {
					mu.Lock()
					failures = append(failures, err.Error())
					mu.Unlock()
					return
				}
				got := res.Optimized.String()
				if got != wantA[qi] && got != wantB[qi] {
					mu.Lock()
					failures = append(failures, "mixed-generation result for "+probes[qi].String()+": "+got)
					mu.Unlock()
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			cat := catB
			if i%2 == 1 {
				cat = catA
			}
			if err := e.SwapCatalog(cat); err != nil {
				mu.Lock()
				failures = append(failures, "swap: "+err.Error())
				mu.Unlock()
				return
			}
		}
	}()

	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	if st := e.Stats(); st.CatalogSwaps == 0 {
		t.Error("no swap ever completed; the race never happened")
	}
}
