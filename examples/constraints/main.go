// Constraints tours the semantic-knowledge machinery around the optimizer:
// intra/inter classification, transitive-closure materialization (Section 3
// / [YuS89]), and the class-attached constraint grouping scheme with its
// least-frequently-accessed enhancement.
package main

import (
	"context"
	"fmt"
	"log"

	"sqo"
)

func main() {
	cat := sqo.LogisticsConstraints()

	fmt.Println("== the constraint catalog, classified ==")
	for _, c := range cat.All() {
		fmt.Printf("  [%s] %s\n", c.Kind(), c)
	}

	fmt.Println("\n== transitive closure materialization ==")
	closed, pool, stats, err := sqo.MaterializeClosure(cat, sqo.ClosureOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original %d constraints, derived %d more in %d rounds\n",
		stats.Original, stats.Derived, stats.Rounds)
	fmt.Printf("predicate interning: %d occurrences -> %d distinct pooled predicates\n",
		stats.PredOccurrence, stats.PooledPreds)
	_ = pool
	for _, c := range closed.All() {
		if len(c.ID) > 3 { // derived constraints carry composite IDs
			fmt.Printf("  derived: %s\n", c)
		}
	}

	fmt.Println("\n== grouping: only groups attached to queried classes are fetched ==")
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		log.Fatal(err)
	}
	gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: 7})
	workload, err := gen.Workload(25)
	if err != nil {
		log.Fatal(err)
	}
	for _, policy := range []sqo.GroupPolicy{sqo.GroupArbitrary, sqo.GroupLeastAccessed, sqo.GroupEvenSpread} {
		stats := sqo.NewAccessStats()
		for _, q := range workload {
			stats.RecordQuery(q) // warm the access pattern
		}
		store := sqo.NewGroupStore(closed, policy, stats)
		store.Rebuild()
		for _, q := range workload {
			store.Retrieve(q)
		}
		fmt.Printf("  %-15s retrieved %4d constraints, %4d relevant (%.1f%% wasted)\n",
			policy, store.Retrieved(), store.Relevant(), 100*store.WasteRatio())
	}
	fmt.Println("\nevery policy always retrieves every relevant constraint; the")
	fmt.Println("least-accessed enhancement just fetches fewer irrelevant ones.")

	// The Engine serves the declared catalog through its inverted index and
	// needs neither: its transformation table chains constraints at run
	// time (DESIGN.md deviation #13), so the closure derives nothing the
	// optimizer would not reach on its own.
	fmt.Println("\n== the Engine front door serves the declared catalog ==")
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(cat),
		sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	for pass := 0; pass < 2; pass++ { // second pass is pure cache hits
		if _, err := eng.OptimizeBatch(ctx, workload); err != nil {
			log.Fatal(err)
		}
	}
	st := eng.Stats()
	fmt.Printf("engine: %d constraints indexed under %d class buckets\n",
		st.Constraints, st.ConstraintIndex.ClassBuckets)
	fmt.Printf("        %d optimizations over two passes: %d cache hits, %d misses\n",
		st.Optimizations, st.Cache.Hits(), st.Cache.Misses)
}
