package sqo_test

// Acceptance gates for the observability layer: tracing must never tax the
// untraced hot path (zero allocations), and a fully sampled trace must cost
// less than 5% of an uncached optimization — timed, and counted in
// allocations and spans. The serving-layer coverage gate (span sum vs
// end-to-end time) lives in internal/server.

import (
	"context"
	"slices"
	"sort"
	"testing"
	"time"

	"sqo"
	"sqo/internal/datagen"
	"sqo/internal/obs"
)

// TestTracingDisabledZeroAllocs: a plain context carries no trace, so the
// instrumented engine path must not allocate for observability — the
// FromContext walk plus nil-safe span methods cost nothing on the heap.
// (TestCachedOptimizeZeroAllocs gates the same path; this one pins the
// property the obs layer is responsible for, on both cache configurations.)
func TestTracingDisabledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job runs this")
	}
	ctx := context.Background()
	q := figure23Query()
	for _, tc := range []struct {
		name string
		opts []sqo.EngineOption
	}{
		{"exact-cache", []sqo.EngineOption{sqo.WithCatalog(datagen.Constraints()), sqo.WithCache(sqo.CacheConfig{Capacity: 64})}},
		{"canonical-cache", []sqo.EngineOption{sqo.WithCatalog(datagen.Constraints()),
			sqo.WithCache(sqo.CacheConfig{Capacity: 64, Subsume: true})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := sqo.NewEngine(datagen.Schema(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Optimize(ctx, q); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(500, func() {
				if _, err := eng.Optimize(ctx, q); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("untraced cached Optimize = %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestTracedCachedOptimizeZeroAllocs: even WITH a live recorder in the
// context, a cache-hit optimize allocates nothing — spans land in the
// trace's fixed array.
func TestTracedCachedOptimizeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job runs this")
	}
	eng, err := sqo.NewEngine(datagen.Schema(),
		sqo.WithCatalog(datagen.Constraints()), sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	if err != nil {
		t.Fatal(err)
	}
	q := figure23Query()
	if _, err := eng.Optimize(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTestTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := eng.Optimize(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	// The trace saturates at MaxSpans and keeps counting overflow; no spill
	// to the heap either way.
	if allocs != 0 {
		t.Errorf("traced cached Optimize = %.1f allocs/op, want 0", allocs)
	}
}

// TestSampledTracingOverhead: with every request traced (the worst case —
// production samples 1-in-N), one full uncached optimization through the
// engine slows by less than 5%. The recorder's cost is a fixed ~300ns of
// lifecycle (pool, context value, two clock reads, ring publish). Medians
// of interleaved trials damp scheduler noise; a failed attempt re-measures
// before failing the build.
func TestSampledTracingOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts timing; the non-race CI job runs this")
	}
	eng, err := sqo.NewEngine(datagen.Schema(), sqo.WithCatalog(datagen.Constraints()))
	if err != nil {
		t.Fatal(err) // no cache: every call runs the full pipeline
	}
	q := figure23Query()
	plain := context.Background()
	// Fresh recorder per op, exactly as the serving layer does — a reused
	// trace would saturate at MaxSpans and stop paying the recording cost.
	tc := obs.NewTracer(obs.TracerConfig{SampleN: 1})
	clock := time.Now() // defeat dead-store elimination on the base path
	run := func(traced bool, iters int) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			ctx := plain
			var tr *obs.Trace
			// Both paths read the clock once per op — the serving layer
			// takes a start timestamp for latency metrics on every request,
			// traced or not, so that read is not tracing-attributable.
			at := time.Now()
			if traced {
				tr = tc.Sample(at)
				ctx = obs.WithTrace(ctx, tr)
			} else {
				clock = at
			}
			if _, err := eng.Optimize(ctx, q); err != nil {
				t.Fatal(err)
			}
			tc.Finish(tr)
		}
		return time.Since(start)
	}
	_ = clock
	run(true, 50) // warm both paths
	run(false, 50)

	// Paired design: each trial times both paths back to back, so slow
	// drift (frequency scaling, background load) hits both sides of a
	// pair equally and cancels in the difference; the median over pairs
	// shrugs off the occasional preempted trial. Order alternates within
	// the pair so even fast drift cannot systematically favor one side.
	const trials, iters = 21, 300
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	var ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		base := make([]time.Duration, 0, trials)
		delta := make([]time.Duration, 0, trials)
		for i := 0; i < trials; i++ {
			var b, in time.Duration
			if i%2 == 0 {
				b = run(false, iters)
				in = run(true, iters)
			} else {
				in = run(true, iters)
				b = run(false, iters)
			}
			base = append(base, b)
			delta = append(delta, in-b)
		}
		ratio = 1 + float64(median(delta))/float64(median(base))
		if ratio < 1.05 {
			return
		}
	}
	t.Errorf("100%%-sampled tracing overhead = %.1f%%, budget 5%%", (ratio-1)*100)
}

// TestSampledTracingAllocBudget is TestSampledTracingOverhead's counted
// twin: the same property as work every host counts alike. A 100%-sampled
// uncached Optimize, recorder lifecycle included, allocates at most one
// object more than an untraced one (the context carrying the trace; the
// recorder is pooled), and its trace holds exactly the optimizer's
// retrieve, transform and formulate spans, none dropped.
func TestSampledTracingAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job runs this")
	}
	eng, err := sqo.NewEngine(datagen.Schema(), sqo.WithCatalog(datagen.Constraints()))
	if err != nil {
		t.Fatal(err) // no cache: every call runs the full pipeline
	}
	q := figure23Query()
	plain := context.Background()
	tc := obs.NewTracer(obs.TracerConfig{SampleN: 1})
	traced := func() *obs.Trace {
		tr := tc.Sample(time.Now())
		if _, err := eng.Optimize(obs.WithTrace(plain, tr), q); err != nil {
			t.Fatal(err)
		}
		tc.Finish(tr)
		return tr
	}
	untraced := func() {
		if _, err := eng.Optimize(plain, q); err != nil {
			t.Fatal(err)
		}
	}
	// Fill the trace ring, so every Finish returns a displaced recorder to
	// the pool the next Sample takes from.
	for i := 0; i < 300; i++ {
		traced()
	}
	untraced()
	base := testing.AllocsPerRun(200, untraced)
	with := testing.AllocsPerRun(200, func() { traced() })
	t.Logf("uncached Optimize: %.0f allocs/op untraced, %.0f traced", base, with)
	if with > base+1 {
		t.Errorf("100%%-sampled Optimize = %.0f allocs/op against %.0f untraced, budget +1", with, base)
	}

	snap, ok := tc.Get(traced().ID())
	if !ok {
		t.Fatal("the finished trace is not in the ring")
	}
	var stages []string
	for _, sp := range snap.Spans {
		stages = append(stages, sp.Stage)
	}
	want := []string{obs.StageRetrieve.String(), obs.StageTransform.String(), obs.StageFormulate.String()}
	if !slices.Equal(stages, want) || snap.DroppedSpans != 0 {
		t.Errorf("trace spans = %v (%d dropped), want exactly %v", stages, snap.DroppedSpans, want)
	}
}
