// Discovery demonstrates the Siegel-style extension the paper points at in
// its introduction: rules derived automatically from the *current database
// state* ("the current database state also contains description of the
// current database status and hence captures more information"). The deriver
// scans a generated logistics database, discovers state-dependent Horn rules
// — rediscovering several declared constraints along the way — and shows the
// optimizer firing more transformations with the enriched catalog.
package main

import (
	"context"
	"fmt"
	"log"

	"sqo"
)

func main() {
	db, err := sqo.GenerateDatabase(sqo.DB2())
	if err != nil {
		log.Fatal(err)
	}
	declared := sqo.LogisticsConstraints()

	derived, err := sqo.DeriveRules(db, sqo.DeriveOptions{Bounds: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("derived %d state-dependent rules from the current data; a sample:\n", derived.Len())
	for i, c := range derived.All() {
		if i >= 8 {
			fmt.Printf("  ... and %d more\n", derived.Len()-i)
			break
		}
		fmt.Printf("  %s\n", c.Doc)
	}

	// Several declared integrity constraints are rediscovered from data.
	merged, err := sqo.MergeCatalogs(declared, derived)
	if err != nil {
		log.Fatal(err)
	}
	rediscovered := declared.Len() + derived.Len() - merged.Len()
	fmt.Printf("\nmerged catalog: %d declared + %d derived = %d (%d rediscovered declared rules)\n",
		declared.Len(), derived.Len(), merged.Len(), rediscovered)

	// Compare optimization power with and without the derived knowledge.
	model := sqo.NewCostModel(db.Schema(), db.Analyze(), sqo.DefaultWeights)
	exec := sqo.NewExecutor(db)
	gen := sqo.NewWorkloadGenerator(db, declared, sqo.WorkloadOptions{Seed: 21})
	workload, err := gen.Workload(15)
	if err != nil {
		log.Fatal(err)
	}

	// One long-lived engine serves both runs: it starts on the declared
	// constraints, then SwapCatalog atomically hot-swaps the merged
	// declared+derived rule set in — exactly how a production deployment
	// absorbs freshly mined state rules without restarting. The swap
	// applies only its delta, here the derived rules appended after the
	// declared ones: cached results no derived rule is relevant to keep
	// serving.
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(declared),
		sqo.WithCostModel(model),
		sqo.WithCache(sqo.CacheConfig{Capacity: 32}))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	run := func() (fires int, cost float64) {
		results, err := eng.OptimizeBatch(ctx, workload)
		if err != nil {
			log.Fatal(err)
		}
		for _, res := range results {
			out, err := exec.Execute(res.Optimized)
			if err != nil {
				log.Fatal(err)
			}
			fires += res.Stats.Fires
			cost += out.Cost(sqo.DefaultWeights)
		}
		return fires, cost
	}

	declFires, declCost := run()
	cached := eng.Stats().Cache.Size
	if err := eng.SwapCatalog(merged); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nswap to the merged catalog kept %d of %d cached results (it drops those a derived rule is relevant to)\n",
		eng.Stats().Cache.Size, cached)
	mergedFires, mergedCost := run()
	fmt.Printf("\nworkload of %d queries:\n", len(workload))
	fmt.Printf("  declared constraints only: %3d transformations, total cost %8.1f\n", declFires, declCost)
	fmt.Printf("  plus derived state rules:  %3d transformations, total cost %8.1f\n", mergedFires, mergedCost)
	fmt.Println("\nstate-dependent rules must be re-derived (or invalidated) whenever the")
	fmt.Println("data changes; equivalence holds only in the state they were mined from.")
}
