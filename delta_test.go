package sqo_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sqo"
	"sqo/internal/datagen"
)

// mutCounter hands out unique IDs for synthetic test constraints.
var mutCounter int

// freshRule builds a valid logistics-schema intra-class rule with a unique
// ID and a distinguishing constant, so repeated calls never collide on ID or
// canonical key.
func freshRule(t testing.TB) *sqo.Constraint {
	t.Helper()
	mutCounter++
	return sqo.NewConstraint(
		fmt.Sprintf("zmut%d", mutCounter),
		[]sqo.Predicate{sqo.Eq("vehicle", "desc", sqo.StringValue(fmt.Sprintf("mut-truck-%d", mutCounter)))},
		nil,
		sqo.Sel("vehicle", "capacity", sqo.OpLE, sqo.IntValue(int64(100+mutCounter))),
	)
}

func mustEngine(t testing.TB, opts ...sqo.EngineOption) *sqo.Engine {
	t.Helper()
	eng, err := sqo.NewEngine(datagen.Schema(),
		append([]sqo.EngineOption{sqo.WithCatalog(datagen.Constraints())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestUpdateCatalogBasic drives add, remove and replace through the
// incremental path and checks the engine's view of the catalog after each
// step: constraint counts, epoch advancement, and that the materialized
// declared catalog matches what a from-scratch application of the same ops
// would declare.
func TestUpdateCatalogBasic(t *testing.T) {
	eng := mustEngine(t, sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	ctx := context.Background()
	base := eng.Stats().Constraints

	q := figure23Query()
	if _, err := eng.Optimize(ctx, q); err != nil {
		t.Fatal(err)
	}

	// Add.
	r1 := freshRule(t)
	rep, err := eng.UpdateCatalog(sqo.NewCatalogDelta().AddConstraints(r1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Incremental || rep.Added != 1 || rep.Removed != 0 {
		t.Fatalf("add report = %+v, want incremental add of 1", rep)
	}
	if got := eng.Stats(); got.Constraints != base+1 || got.Epoch != 1 || got.CatalogUpdates != 1 {
		t.Fatalf("after add: stats = %+v", got)
	}
	if eng.Catalog().Get(r1.ID) != r1 {
		t.Fatal("added constraint not in the materialized catalog")
	}

	// Replace moves the constraint to the end of the catalog order.
	r2 := freshRule(t)
	rep, err = eng.UpdateCatalog(sqo.NewCatalogDelta().ReplaceConstraint(r1.ID, r2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added != 1 || rep.Removed != 1 {
		t.Fatalf("replace report = %+v", rep)
	}
	cat := eng.Catalog()
	if cat.Get(r1.ID) != nil || cat.Get(r2.ID) != r2 {
		t.Fatal("replace did not swap the constraints")
	}
	if all := cat.All(); all[len(all)-1] != r2 {
		t.Fatal("replacement did not move to the end of the catalog order")
	}

	// Remove.
	rep, err = eng.UpdateCatalog(sqo.NewCatalogDelta().RemoveConstraints(r2.ID))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed != 1 || eng.Stats().Constraints != base {
		t.Fatalf("remove report = %+v, constraints = %d", rep, eng.Stats().Constraints)
	}

	// The live catalog is now logically the original one again; optimizer
	// output must match a fresh engine's.
	fresh := mustEngine(t)
	a, err := eng.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Optimized.String() != b.Optimized.String() {
		t.Fatalf("post-mutation output diverges:\n%s\n%s", a.Optimized, b.Optimized)
	}
	if !reflect.DeepEqual(eng.Stats().ConstraintIndex, fresh.Stats().ConstraintIndex) {
		t.Fatalf("index stats diverge: %+v vs %+v",
			eng.Stats().ConstraintIndex, fresh.Stats().ConstraintIndex)
	}
}

// TestUpdateCatalogErrors: invalid deltas must leave the serving generation
// completely untouched — same epoch, same catalog, cache still hitting.
func TestUpdateCatalogErrors(t *testing.T) {
	eng := mustEngine(t, sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	ctx := context.Background()
	q := figure23Query()
	if _, err := eng.Optimize(ctx, q); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()

	cases := []*sqo.CatalogDelta{
		sqo.NewCatalogDelta().RemoveConstraints("no-such-id"),
		sqo.NewCatalogDelta().AddConstraints(sqo.NewConstraint("bad",
			[]sqo.Predicate{sqo.Eq("nosuchclass", "x", sqo.StringValue("v"))},
			nil,
			sqo.Eq("vehicle", "desc", sqo.StringValue("v")))),
		sqo.NewCatalogDelta().AddConstraints(sqo.NewConstraint("c1", // duplicate id
			[]sqo.Predicate{sqo.Eq("vehicle", "desc", sqo.StringValue("x"))},
			nil,
			sqo.Sel("vehicle", "capacity", sqo.OpLE, sqo.IntValue(1)))),
	}
	for i, d := range cases {
		if _, err := eng.UpdateCatalog(d); err == nil {
			t.Fatalf("case %d: invalid delta applied without error", i)
		}
		after := eng.Stats()
		if after.Epoch != before.Epoch || after.Constraints != before.Constraints ||
			after.CatalogUpdates != 0 {
			t.Fatalf("case %d: failed update disturbed the engine: %+v", i, after)
		}
	}
	hitsBefore := eng.Stats().Cache.Hits()
	if _, err := eng.Optimize(ctx, q); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Cache.Hits() != hitsBefore+1 {
		t.Fatal("cache entry lost across failed updates")
	}
}

// TestUpdateCatalogSurgicalInvalidation is the cache-correctness core of the
// delta subsystem: entries that consulted a removed constraint are purged,
// entries untouched by the delta survive and keep hitting, and a
// surviving entry never serves a result that depended on a removed
// constraint.
func TestUpdateCatalogSurgicalInvalidation(t *testing.T) {
	eng := mustEngine(t, sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	ctx := context.Background()

	// qVehicle depends on vehicle rules (c2/c3 among them); qDriver only on
	// driver/manager rules (c4, c5).
	qVehicle := figure23Query()
	qDriver := sqo.NewQuery("driver").
		AddProject("driver", "name").
		AddSelect(sqo.Eq("driver", "rank", sqo.StringValue("supervisor")))

	rv, err := eng.Optimize(ctx, qVehicle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Optimize(ctx, qDriver); err != nil {
		t.Fatal(err)
	}
	if rv.Deps() == nil {
		t.Fatal("cached result carries no dependency set")
	}

	// Remove c2 (a vehicle rule consulted by qVehicle).
	rep, err := eng.UpdateCatalog(sqo.NewCatalogDelta().RemoveConstraints("c2"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CachePurged < 1 || rep.CacheSurvived < 1 {
		t.Fatalf("report = %+v, want at least one purged and one survivor", rep)
	}

	st := eng.Stats()
	if _, err := eng.Optimize(ctx, qDriver); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Cache.Hits() != st.Cache.Hits()+1 {
		t.Fatal("entry untouched by the delta did not survive the update")
	}
	if _, err := eng.Optimize(ctx, qVehicle); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Cache.Misses != st.Cache.Misses+1 {
		t.Fatal("entry depending on the removed constraint was served from cache")
	}
	// And the recomputed result must match a fresh engine over the reduced
	// catalog — not the stale pre-removal output.
	fresh, err := sqo.NewEngine(datagen.Schema(), sqo.WithCatalog(eng.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := eng.Optimize(ctx, qVehicle)
	b, err := fresh.Optimize(ctx, qVehicle)
	if err != nil {
		t.Fatal(err)
	}
	if a.Optimized.String() != b.Optimized.String() {
		t.Fatalf("post-removal result stale:\n%s\n%s", a.Optimized, b.Optimized)
	}

	// An added constraint relevant to a cached query must purge its entry
	// even though the entry's dependency set cannot mention it.
	if _, err := eng.Optimize(ctx, qDriver); err != nil {
		t.Fatal(err)
	}
	newRule := sqo.NewConstraint("zdrv",
		[]sqo.Predicate{sqo.Eq("driver", "rank", sqo.StringValue("supervisor"))},
		nil,
		sqo.Sel("driver", "licenseClass", sqo.OpGE, sqo.IntValue(3)))
	if _, err := eng.UpdateCatalog(sqo.NewCatalogDelta().AddConstraints(newRule)); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if _, err := eng.Optimize(ctx, qDriver); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Cache.Misses != st.Cache.Misses+1 {
		t.Fatal("entry whose query the added constraint is relevant to was served stale")
	}
}

// TestUpdateCatalogFingerprintShift: a delta that interns a predicate of a
// cached query (without being relevant to it) leaves the entry cached.
// Fingerprints hash content, so interning a symbol cannot move the key:
// the next lookup hits, serves what a fresh engine over the new catalog
// computes, and the cache still holds the one entry.
func TestUpdateCatalogFingerprintShift(t *testing.T) {
	eng := mustEngine(t, sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	ctx := context.Background()
	// driver.licenseClass >= 9 appears in no logistics constraint.
	q := sqo.NewQuery("driver").
		AddProject("driver", "name").
		AddSelect(sqo.Sel("driver", "licenseClass", sqo.OpGE, sqo.IntValue(9)))
	if _, err := eng.Optimize(ctx, q); err != nil {
		t.Fatal(err)
	}

	// Interns the predicate, but requires vehicle + drives, so it is not
	// relevant to q and neither dependency- nor relevance-purge applies.
	shift := sqo.NewConstraint("zshift",
		[]sqo.Predicate{sqo.Sel("driver", "licenseClass", sqo.OpGE, sqo.IntValue(9))},
		[]string{"drives"},
		sqo.Sel("vehicle", "class", sqo.OpLE, sqo.IntValue(9)))
	rep, err := eng.UpdateCatalog(sqo.NewCatalogDelta().AddConstraints(shift))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CachePurged != 0 || rep.CacheSurvived != 1 {
		t.Fatalf("report = %+v, want the entry left cached", rep)
	}
	st := eng.Stats()
	got, err := eng.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Cache.Hits() != st.Cache.Hits()+1 {
		t.Fatal("the entry did not serve after a delta interned its predicate")
	}
	fresh, err := sqo.NewEngine(datagen.Schema(), sqo.WithCatalog(eng.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Optimized.String() != want.Optimized.String() || !reflect.DeepEqual(got.FinalTags(), want.FinalTags()) {
		t.Fatalf("surviving entry diverges from a fresh engine:\n%s\n%s", got.Optimized, want.Optimized)
	}
	if n := eng.Stats().Cache.Size; n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
}

// TestUpdateCatalogFallback: a semantic no-op delta (key-duplicate re-adds
// only) falls back to nothing — no rebuild, no epoch bump, cache untouched.
func TestUpdateCatalogFallback(t *testing.T) {
	t.Run("noop", func(t *testing.T) {
		eng := mustEngine(t, sqo.WithCache(sqo.CacheConfig{Capacity: 16}))
		if _, err := eng.Optimize(context.Background(), figure23Query()); err != nil {
			t.Fatal(err)
		}
		before := eng.Stats()
		c1 := datagen.Constraints().Get("c1")
		dup := sqo.NewConstraint("c1dup", c1.Antecedents, c1.Links, c1.Consequent) // same key as c1
		rep, err := eng.UpdateCatalog(sqo.NewCatalogDelta().AddConstraints(dup))
		if err != nil {
			t.Fatal(err)
		}
		after := eng.Stats()
		if rep.Added != 0 || rep.CachePurged != 0 || after.Epoch != before.Epoch || after.Cache != before.Cache {
			t.Fatalf("no-op delta disturbed the engine: report %+v, cache %+v -> %+v", rep, before.Cache, after.Cache)
		}
	})
}

// TestDiffCatalogs: the re-derivation bridge — the computed delta must turn
// the engine's catalog into the target catalog, touching only what changed.
func TestDiffCatalogs(t *testing.T) {
	base := datagen.Constraints()
	all := base.All()
	// Target: drop c2, keep the rest, add one new rule (under an ID that
	// collides with a dropped one, as re-derivation does).
	repl := sqo.NewConstraint("c2",
		[]sqo.Predicate{sqo.Eq("vehicle", "desc", sqo.StringValue("van"))},
		nil,
		sqo.Sel("vehicle", "capacity", sqo.OpLE, sqo.IntValue(250)))
	target := sqo.MustCatalog(append(append(append([]*sqo.Constraint(nil), all[0]), all[2:]...), repl)...)

	d := sqo.DiffCatalogs(base, target)
	if d.Len() != 2 {
		t.Fatalf("diff recorded %d ops, want 2 (one remove, one add)", d.Len())
	}
	eng := mustEngine(t)
	rep, err := eng.UpdateCatalog(d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added != 1 || rep.Removed != 1 {
		t.Fatalf("diff application report = %+v", rep)
	}
	got := eng.Catalog()
	if got.Len() != target.Len() {
		t.Fatalf("catalog size %d after diff, want %d", got.Len(), target.Len())
	}
	for _, c := range target.All() {
		if got.Get(c.ID) == nil {
			t.Fatalf("constraint %s missing after diff application", c.ID)
		}
	}
	// Identical catalogs diff to nothing, and applying nothing is a no-op.
	if d := sqo.DiffCatalogs(target, target); !d.Empty() {
		t.Fatalf("self-diff is not empty: %d ops", d.Len())
	}
	epoch := eng.Stats().Epoch
	if _, err := eng.UpdateCatalog(sqo.NewCatalogDelta()); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Epoch != epoch {
		t.Fatal("empty delta bumped the epoch")
	}
}

// TestUpdateCatalogCompaction: sustained mutation accumulates tombstones;
// once they outnumber the live catalog the engine folds the next delta into
// a full rebuild (dense ordinals again) and keeps going incrementally. A
// compaction is a full rebuild, so it must purge the whole cache and bump
// the epoch. The engine must stay correct across the compaction boundary.
func TestUpdateCatalogCompaction(t *testing.T) {
	eng := mustEngine(t, sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	ctx := context.Background()
	q := figure23Query()

	sawCompaction := false
	apply := func(d *sqo.CatalogDelta) {
		t.Helper()
		epoch := eng.Stats().Epoch
		rep, err := eng.UpdateCatalog(d)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Incremental {
			return
		}
		sawCompaction = true
		if st := eng.Stats(); rep.CacheSurvived != 0 || st.Cache.Size != 0 || rep.Epoch != epoch+1 || st.Epoch != rep.Epoch {
			t.Fatalf("compaction must purge the whole cache and bump the epoch: report %+v, epoch %d -> %d, %d entries left",
				rep, epoch, st.Epoch, st.Cache.Size)
		}
	}
	for i := 0; i < 80; i++ {
		r := freshRule(t)
		apply(sqo.NewCatalogDelta().AddConstraints(r))
		if _, err := eng.Optimize(ctx, q); err != nil {
			t.Fatal(err)
		}
		apply(sqo.NewCatalogDelta().RemoveConstraints(r.ID))
		if _, err := eng.Optimize(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if !sawCompaction {
		t.Fatal("80 add/remove cycles never triggered tombstone compaction")
	}
	// Still byte-identical to a fresh engine over the same (original) set.
	fresh := mustEngine(t)
	a, err := eng.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Optimized.String() != b.Optimized.String() {
		t.Fatalf("post-compaction output diverges:\n%s\n%s", a.Optimized, b.Optimized)
	}
	if !reflect.DeepEqual(eng.Stats().ConstraintIndex, fresh.Stats().ConstraintIndex) {
		t.Fatal("post-compaction index stats diverge")
	}
}

// TestUpdateCatalogConcurrent hammers Optimize from several goroutines while
// the catalog is mutated underneath — the incremental analogue of the
// swap/optimize race test; run under -race it proves generation purity.
func TestUpdateCatalogConcurrent(t *testing.T) {
	eng := mustEngine(t, sqo.WithCache(sqo.CacheConfig{Capacity: 256}))
	ctx := context.Background()
	qs := []*sqo.Query{figure23Query(),
		sqo.NewQuery("driver").AddProject("driver", "name").
			AddSelect(sqo.Eq("driver", "rank", sqo.StringValue("supervisor")))}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.Optimize(ctx, qs[(w+i)%len(qs)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		r := freshRule(t)
		if _, err := eng.UpdateCatalog(sqo.NewCatalogDelta().AddConstraints(r)); err != nil {
			t.Error(err)
			break
		}
		if _, err := eng.UpdateCatalog(sqo.NewCatalogDelta().RemoveConstraints(r.ID)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
