package sqo_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"sqo"
	"sqo/internal/datagen"
)

// BenchmarkCatalogUpdate measures one incremental UpdateCatalog call across
// catalog sizes (10²–10⁴ rules) and delta sizes (1/10/100 rules). Each
// delta=D iteration applies one delta: removals and re-additions of the
// same rule batch alternate, so the live catalog size stays put while every
// call is a real generation change (tombstone compaction, when the
// guardrail trips, is part of the measured amortized cost). Their re-adds
// reuse interned symbols; the fresh cases send what a serving writer sends
// (freshWriter), so every update interns new predicates. Those cases leave
// the cache empty; catalog=10000/warm sends the fresh writer's updates
// under a full semantic cache (see warmUpdate).
// BenchmarkCatalogSwap/catalog=10000/replace-all prices the full rebuild
// these deltas avoid.
func BenchmarkCatalogUpdate(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		sch, cat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: n, Seed: int64(n)})
		if err != nil {
			b.Fatal(err)
		}
		if n == 10000 {
			var qs []*sqo.Query
			b.Run("catalog=10000/warm", func(b *testing.B) {
				if qs == nil {
					qs = warmWorkload(b, sch, cat)
				}
				w := newWarmUpdate(b, sch, cat, qs)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.update(b)
				}
			})
		}
		for _, ds := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("catalog=%d/delta=%d", n, ds), func(b *testing.B) {
				eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat), sqo.WithCache(sqo.CacheConfig{Capacity: 1024}))
				if err != nil {
					b.Fatal(err)
				}
				all := cat.All()
				// Pay the one-time lineage promotion outside the timer.
				if _, err := eng.UpdateCatalog(sqo.NewCatalogDelta().
					ReplaceConstraint(all[0].ID, all[0])); err != nil {
					b.Fatal(err)
				}
				pos, removed := 0, []*sqo.Constraint(nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d := sqo.NewCatalogDelta()
					if removed == nil {
						removed = make([]*sqo.Constraint, 0, ds)
						for k := 0; k < ds && k < len(all); k++ {
							c := all[(pos+k)%len(all)]
							removed = append(removed, c)
							d.RemoveConstraints(c.ID)
						}
					} else {
						d.AddConstraints(removed...)
						pos += len(removed)
						removed = nil
					}
					if _, err := eng.UpdateCatalog(d); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("catalog=%d/fresh", n), func(b *testing.B) {
			eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat), sqo.WithCache(sqo.CacheConfig{Capacity: 1024}))
			if err != nil {
				b.Fatal(err)
			}
			w := newFreshWriter("fresh", sch)
			// Pay the one-time lineage promotion outside the timer.
			w.apply(b, eng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.apply(b, eng)
			}
		})
	}
}

// freshWriter makes the updates a serving writer sends, as perfbench's and
// sqoload's writers do: update i adds fresh rule i on a random class and
// removes rule i-1, so the live catalog size stays put and every update
// interns new predicates.
type freshWriter struct {
	id, kind string // formats of rule i's ID and kind constant
	classes  []string
	rng      *rand.Rand
	i        int // the next update
}

// newFreshWriter names rule i <prefix><i>. Formats, not a prefix argument,
// keep the writer's own allocations those of a literal format.
func newFreshWriter(prefix string, sch *sqo.Schema) *freshWriter {
	return &freshWriter{id: prefix + "%d", kind: prefix + "-%d", classes: sch.Classes(), rng: rand.New(rand.NewSource(1))}
}

// next returns the next update and the class of the rule it adds.
func (w *freshWriter) next() (*sqo.CatalogDelta, string) {
	i := w.i
	w.i++
	class := w.classes[w.rng.Intn(len(w.classes))]
	d := sqo.NewCatalogDelta().AddConstraints(sqo.NewConstraint(fmt.Sprintf(w.id, i),
		[]sqo.Predicate{sqo.Eq(class, "kind", sqo.StringValue(fmt.Sprintf(w.kind, i)))}, nil,
		sqo.Sel(class, "load", sqo.OpLE, sqo.IntValue(int64(5000+i)))))
	if i > 0 {
		d.RemoveConstraints(fmt.Sprintf(w.id, i-1))
	}
	return d, class
}

// apply sends the next update to eng.
func (w *freshWriter) apply(tb testing.TB, eng *sqo.Engine) {
	d, _ := w.next()
	if _, err := eng.UpdateCatalog(d); err != nil {
		tb.Fatal(err)
	}
}

// warmCapacity is the cache of catalog=10000/warm: sqod's default.
const warmCapacity = 4096

// warmWorkload draws warmCapacity scaled queries with distinct canonical
// forms, so optimizing them fills the cache exactly and optimizing them
// again evicts nothing.
func warmWorkload(b *testing.B, sch *sqo.Schema, cat *sqo.Catalog) []*sqo.Query {
	pool, err := sqo.ScaledWorkload(sch, cat, warmCapacity+warmCapacity/4, 1)
	if err != nil {
		b.Fatal(err)
	}
	var qs []*sqo.Query
	seen := map[sqo.QueryFingerprint]bool{}
	for _, q := range pool {
		if _, fp := sqo.CanonicalizeQuery(q); !seen[fp] && len(qs) < warmCapacity {
			seen[fp] = true
			qs = append(qs, q)
		}
	}
	return qs
}

// warmUpdate is the state of catalog=10000/warm: an engine whose
// canonicalizing, subsuming cache holds the whole warm workload, and the
// writer. Each b.N round builds its own, so every round starts from the
// same lineage.
type warmUpdate struct {
	eng  *sqo.Engine
	qs   []*sqo.Query // distinct canonical forms, exactly filling the cache
	w    *freshWriter
	prev string // class of the rule the previous update added
}

func newWarmUpdate(b *testing.B, sch *sqo.Schema, cat *sqo.Catalog, qs []*sqo.Query) *warmUpdate {
	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat),
		sqo.WithCache(sqo.CacheConfig{Capacity: warmCapacity, Canonicalize: true, Subsume: true}))
	if err != nil {
		b.Fatal(err)
	}
	w := &warmUpdate{eng: eng, qs: qs, w: newFreshWriter("warm", sch)}
	w.refill(b, nil)
	if size := eng.Stats().Cache.Size; size != warmCapacity {
		b.Fatalf("cache holds %d entries after the fill, want %d", size, warmCapacity)
	}
	// Pay the one-time lineage promotion here, outside every timer.
	w.update(b)
	return w
}

// refill optimizes again the workload queries holding any of classes (all
// of them for nil): the only entries an update on those classes can have
// purged.
func (w *warmUpdate) refill(b *testing.B, classes []string) {
	for _, q := range w.qs {
		if classes == nil || slices.ContainsFunc(classes, q.HasClass) {
			if _, err := w.eng.Optimize(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// update applies the fresh writer's next delta, then refills the cache
// with the timer stopped, so every update meets a full cache.
func (w *warmUpdate) update(b *testing.B) {
	d, class := w.w.next()
	if _, err := w.eng.UpdateCatalog(d); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	w.refill(b, []string{class, w.prev})
	w.prev = class
	b.StartTimer()
}

// BenchmarkCatalogSwap measures SwapCatalog. catalog=N swaps in the catalog
// the engine already serves, which publishes nothing: the cost of the walk
// that finds the swap's delta. At 10⁴ rules two more cases alternate
// between two catalogs over one schema, one on each side of the
// patch-or-rebuild rule: one-rule swaps the catalog and the catalog plus
// one rule (a patch each way), replace-all swaps two unrelated catalogs (a
// rebuild each way).
func BenchmarkCatalogSwap(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		sch, cat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: n, Seed: int64(n)})
		if err != nil {
			b.Fatal(err)
		}
		alternate := func(b *testing.B, next *sqo.Catalog) {
			eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat), sqo.WithCache(sqo.CacheConfig{Capacity: 1024}))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				to := next
				if i%2 == 1 {
					to = cat
				}
				if err := eng.SwapCatalog(to); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(fmt.Sprintf("catalog=%d", n), func(b *testing.B) { alternate(b, cat) })
		if n != 10000 {
			continue
		}
		plus, err := sqo.NewCatalog(cat.All()...)
		if err != nil {
			b.Fatal(err)
		}
		cl := sch.Classes()[0]
		if err := plus.Add(sqo.NewConstraint("one", []sqo.Predicate{sqo.Eq(cl, "kind", sqo.StringValue("one"))}, nil,
			sqo.Sel(cl, "load", sqo.OpLE, sqo.IntValue(99999)))); err != nil {
			b.Fatal(err)
		}
		_, other, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: n, Seed: int64(n) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("catalog=10000/one-rule", func(b *testing.B) { alternate(b, plus) })
		b.Run("catalog=10000/replace-all", func(b *testing.B) { alternate(b, other) })
	}
}

// TestCatalogUpdateSpeedup is the performance acceptance bar of the delta
// subsystem: on a 10⁴-rule catalog, applying a 1-rule delta must be at
// least 10x faster than compiling the same catalog from scratch, the full
// rebuild NewEngine(WithCatalog) does. The measured gap is far larger; 10x
// leaves room for noisy CI machines.
func TestCatalogUpdateSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing ratio; the non-race CI job runs this")
	}
	sch, cat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: 10000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat), sqo.WithCache(sqo.CacheConfig{Capacity: 1024}))
	if err != nil {
		t.Fatal(err)
	}
	all := cat.All()

	// Warm the lineage (first delta pays the one-time lineage seeding).
	if _, err := eng.UpdateCatalog(sqo.NewCatalogDelta().ReplaceConstraint(all[0].ID, all[0])); err != nil {
		t.Fatal(err)
	}
	best := func(passes int, f func()) time.Duration {
		b := time.Duration(1<<62 - 1)
		for i := 0; i < passes; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	i := 1
	upd := best(10, func() {
		c := all[i%len(all)]
		i++
		if _, err := eng.UpdateCatalog(sqo.NewCatalogDelta().ReplaceConstraint(c.ID, c)); err != nil {
			t.Fatal(err)
		}
	})
	build := best(3, func() {
		if _, err := sqo.NewEngine(sch, sqo.WithCatalog(cat), sqo.WithCache(sqo.CacheConfig{Capacity: 1024})); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("10⁴-rule catalog: 1-rule UpdateCatalog %v, full rebuild %v (%.1fx)",
		upd, build, float64(build)/float64(upd))
	if build < upd*10 {
		t.Errorf("1-rule delta apply is only %.1fx faster than a full rebuild, want >= 10x (update %v, rebuild %v)",
			float64(build)/float64(upd), upd, build)
	}
}

// TestCatalogUpdateBytesFlat is the counted twin of
// TestCatalogUpdateSpeedup: a one-rule update costs what its delta costs,
// so what the fresh writer's updates allocate must not grow with the
// catalog. The engine has no cache, so the bytes are the patch's own; a
// patch that copied a per-predicate, per-class or per-signature array whole
// would allocate about ten times more at 10⁴ rules than at 10³.
func TestCatalogUpdateBytesFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job runs this")
	}
	const warmup, measured = 16, 64
	type cost struct{ bytes, allocs float64 }
	measure := func(rules int) cost {
		sch, cat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: rules, Seed: int64(rules)})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat))
		if err != nil {
			t.Fatal(err)
		}
		w := newFreshWriter("flat", sch)
		for i := 0; i < warmup; i++ {
			w.apply(t, eng)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < measured; i++ {
			w.apply(t, eng)
		}
		runtime.ReadMemStats(&after)
		return cost{
			bytes:  float64(after.TotalAlloc-before.TotalAlloc) / measured,
			allocs: float64(after.Mallocs-before.Mallocs) / measured,
		}
	}
	c2, c3, c4 := measure(100), measure(1000), measure(10000)
	t.Logf("per update: 10² rules %.0f B %.1f allocs; 10³ rules %.0f B %.1f allocs; 10⁴ rules %.0f B %.1f allocs",
		c2.bytes, c2.allocs, c3.bytes, c3.allocs, c4.bytes, c4.allocs)
	if c4.bytes > 1.5*c3.bytes {
		t.Errorf("update bytes grow with the catalog: %.0f B at 10³ rules, %.0f B at 10⁴ (%.2fx, want <= 1.5x)",
			c3.bytes, c4.bytes, c4.bytes/c3.bytes)
	}
	if c4.allocs > c3.allocs+16 {
		t.Errorf("update allocations grow with the catalog: %.1f at 10³ rules, %.1f at 10⁴", c3.allocs, c4.allocs)
	}
}

// TestCatalogUpdateZeroAllocSurvivors gates the acceptance criterion that
// cached entries untouched by a delta keep serving with zero heap
// allocations after the mutation — the surgical invalidation must not
// degrade the interned hot path — and that the post-mutation hit-rate is
// strictly positive.
func TestCatalogUpdateZeroAllocSurvivors(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job runs this")
	}
	eng, err := sqo.NewEngine(datagen.Schema(),
		sqo.WithCatalog(datagen.Constraints()), sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	qDriver := sqo.NewQuery("driver").
		AddProject("driver", "name").
		AddSelect(sqo.Eq("driver", "rank", sqo.StringValue("supervisor")))
	if _, err := eng.Optimize(ctx, qDriver); err != nil {
		t.Fatal(err)
	}

	// A vehicle rule is irrelevant to the driver query: its entry must
	// survive the update.
	r := freshRule(t)
	rep, err := eng.UpdateCatalog(sqo.NewCatalogDelta().AddConstraints(r))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheSurvived == 0 {
		t.Fatalf("report = %+v, want a surviving cache entry", rep)
	}

	before := eng.Stats()
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := eng.Optimize(ctx, qDriver); err != nil {
			t.Fatal(err)
		}
	})
	after := eng.Stats()
	if after.Cache.Hits() <= before.Cache.Hits() {
		t.Fatal("post-mutation hit-rate is zero: surviving entry did not serve")
	}
	if allocs != 0 {
		t.Errorf("cached Optimize after UpdateCatalog = %.1f allocs/op, want 0", allocs)
	}
}
