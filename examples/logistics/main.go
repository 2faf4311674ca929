// Logistics runs the full evaluation pipeline on the paper's largest
// database instance (DB4 of Table 4.1): generate the constraint-satisfying
// database, formulate a path-query workload the way Section 4 describes,
// optimize every query, execute both versions, and summarize the measured
// cost savings.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"sqo"
)

func main() {
	cfg := sqo.DB4()
	fmt.Printf("generating %s (avg class cardinality %d)...\n", cfg.Name, cfg.Classes()/5)
	db, err := sqo.GenerateDatabase(cfg)
	if err != nil {
		log.Fatal(err)
	}
	cat := sqo.LogisticsConstraints()

	// Sanity: the generated instance satisfies every semantic constraint.
	if id, err := sqo.CheckCatalog(db, cat); err != nil || id != "" {
		log.Fatalf("constraint %q violated (err %v)", id, err)
	}
	fmt.Printf("all %d semantic constraints hold\n\n", cat.Len())

	model := sqo.NewCostModel(db.Schema(), db.Analyze(), sqo.DefaultWeights)
	// One engine serves the whole workload: indexed retrieval, a result
	// cache for repeated queries, and a worker pool for the batch.
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(cat),
		sqo.WithCostModel(model),
		sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	if err != nil {
		log.Fatal(err)
	}
	exec := sqo.NewExecutor(db)

	gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: 41})
	workload, err := gen.Workload(20)
	if err != nil {
		log.Fatal(err)
	}

	// Optimize the whole workload in one concurrent batch.
	results, err := eng.OptimizeBatch(context.Background(), workload)
	if err != nil {
		log.Fatal(err)
	}

	type outcome struct {
		ratio    float64
		original float64
		saved    float64
		fires    int
		q        *sqo.Query
	}
	var outcomes []outcome
	for i, q := range workload {
		res := results[i]
		before, err := exec.Execute(q)
		if err != nil {
			log.Fatal(err)
		}
		after, err := exec.Execute(res.Optimized)
		if err != nil {
			log.Fatal(err)
		}
		oc := before.Cost(sqo.DefaultWeights)
		zc := after.Cost(sqo.DefaultWeights)
		outcomes = append(outcomes, outcome{
			ratio:    100 * zc / oc,
			original: oc,
			saved:    oc - zc,
			fires:    res.Stats.Fires,
			q:        q,
		})
	}

	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].ratio < outcomes[j].ratio })
	fmt.Println("per-query results (sorted by optimized/original cost ratio):")
	totalBefore, totalAfter := 0.0, 0.0
	for _, o := range outcomes {
		totalBefore += o.original
		totalAfter += o.original - o.saved
		fmt.Printf("  %6.1f%%  cost %8.1f -> %8.1f  (%d transformations)\n",
			o.ratio, o.original, o.original-o.saved, o.fires)
	}
	fmt.Printf("\nworkload total: %.1f -> %.1f cost units (%.1f%% of original)\n",
		totalBefore, totalAfter, 100*totalAfter/totalBefore)
	fmt.Println("\nbest win:")
	fmt.Println("  before:", outcomes[0].q)

	st := eng.Stats()
	fmt.Printf("\nengine: %d optimizations, cache %d/%d hit/miss, %d constraints indexed\n",
		st.Optimizations, st.Cache.Hits(), st.Cache.Misses, st.Constraints)
}
