// Mutation demonstrates the incremental catalog-update path end to end,
// wiring rule derivation (the Siegel [Sie88] extension) into
// Engine.UpdateCatalog: state-dependent rules are mined from the current
// database, the database is then mutated, the rules are re-derived — and
// instead of swapping the whole catalog (which would rebuild the retrieval
// index and throw away every cached result), only the *changed* rules are
// applied as a CatalogDelta. The engine patches the generation in place-by-
// copy and keeps every cached optimization the delta does not touch.
package main

import (
	"context"
	"fmt"
	"log"

	"sqo"
)

func main() {
	ctx := context.Background()
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		log.Fatal(err)
	}
	declared := sqo.LogisticsConstraints()

	// Mine state rules from the data and serve from declared + derived.
	// Derived IDs are namespaced per derivation round so rounds never
	// collide; rules are compared by canonical key anyway.
	derived, err := deriveRound(db, 1)
	if err != nil {
		log.Fatal(err)
	}
	catalog, err := sqo.MergeCatalogs(declared, derived)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := sqo.NewEngine(db.Schema(), sqo.WithCatalog(catalog), sqo.WithCache(sqo.CacheConfig{Capacity: 512}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %d constraints (%d declared + %d derived)\n",
		eng.Stats().Constraints, declared.Len(), eng.Stats().Constraints-declared.Len())

	// Warm the result cache with a workload.
	gen := sqo.NewWorkloadGenerator(db, declared, sqo.WorkloadOptions{Seed: 21})
	workload, err := gen.Workload(40)
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range workload {
		if _, err := eng.Optimize(ctx, q); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("cache warmed: %d distinct optimizations cached\n", eng.Stats().Cache.Size)

	// The data shifts: some frozen-food shipments grow past every mined
	// quantity bound. State-dependent rules about cargo are now stale.
	var cargos []sqo.OID
	if err := db.Scan("cargo", nil, func(inst sqo.Instance) bool {
		cargos = append(cargos, inst.OID)
		return len(cargos) < 5
	}); err != nil {
		log.Fatal(err)
	}
	for _, oid := range cargos {
		if err := db.Update("cargo", oid, "quantity", sqo.IntValue(100000)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nmutated %d cargo instances; re-deriving state rules\n", len(cargos))

	// Re-derive and apply only what changed. DiffCatalogs compares by
	// canonical key: rules that still hold produce no ops at all.
	derived2, err := deriveRound(db, 2)
	if err != nil {
		log.Fatal(err)
	}
	catalog2, err := sqo.MergeCatalogs(declared, derived2)
	if err != nil {
		log.Fatal(err)
	}
	delta := sqo.DiffCatalogs(eng.Catalog(), catalog2)
	rep, err := eng.UpdateCatalog(delta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied delta: %d rules removed, %d added (of %d total) — incremental=%v\n",
		rep.Removed, rep.Added, eng.Stats().Constraints, rep.Incremental)
	fmt.Printf("result cache: %d entries purged, %d survived the update\n",
		rep.CachePurged, rep.CacheSurvived)

	// Replay the workload: surviving entries hit, only queries the changed
	// rules touch are recomputed.
	before := eng.Stats()
	for _, q := range workload {
		if _, err := eng.Optimize(ctx, q); err != nil {
			log.Fatal(err)
		}
	}
	after := eng.Stats()
	fmt.Printf("replay of %d queries: %d cache hits, %d recomputed\n",
		len(workload), after.Cache.Hits()-before.Cache.Hits(), after.Cache.Misses-before.Cache.Misses)
}

// deriveRound mines state rules and namespaces their IDs by round, so two
// derivation rounds can never collide on ID (they are diffed by key).
func deriveRound(db *sqo.Database, round int) (*sqo.Catalog, error) {
	mined, err := sqo.DeriveRules(db, sqo.DeriveOptions{Bounds: true})
	if err != nil {
		return nil, err
	}
	out := make([]*sqo.Constraint, 0, mined.Len())
	for i, c := range mined.All() {
		r := sqo.NewConstraint(fmt.Sprintf("s%d_%d", round, i), c.Antecedents, c.Links, c.Consequent)
		r.Doc, r.StateDependent = c.Doc, true
		out = append(out, r)
	}
	return sqo.NewCatalog(out...)
}
