// Constraints tours the semantic knowledge the optimizer runs on: the
// catalog's intra/inter classification, then the Engine serving that
// declared catalog. The paper's closure and grouping schemes are ablations
// of the evaluation harness: `sqobench -exp closure` and `-exp grouping`.
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

	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		log.Fatal(err)
	}
	gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: 7})
	workload, err := gen.Workload(25)
	if err != nil {
		log.Fatal(err)
	}

	// The Engine serves the declared catalog through its inverted index and
	// needs no closure: its transformation table chains constraints at run
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
