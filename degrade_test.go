package sqo_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sqo"
	"sqo/internal/datagen"
	"sqo/internal/faultinject"
)

// degradeStream builds a near-duplicate replay stream (base, exact repeat,
// two canonical rewrites, and an inert contained specialization where one
// exists) — the traffic mix on which every degradation level must still
// answer byte-identically.
func degradeStream(t *testing.T, bases int) (*sqo.Schema, *sqo.Catalog, []*sqo.Query) {
	t.Helper()
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	sch := db.Schema()
	cat := sqo.LogisticsConstraints()
	gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: 83})
	qs, err := gen.Workload(bases)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sqo.NewEngine(sch, sqo.WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	mentioned := mentionedAttrs(cat)
	rng := rand.New(rand.NewSource(29))
	var stream []*sqo.Query
	for _, q := range qs {
		base, err := ref.Optimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, q, cloneQuery(q), permuteDup(q, rng), permuteDup(q, rng))
		if extra, ok := inertExtra(sch, mentioned, q, base); ok {
			spec := cloneQuery(q)
			spec.Selects = append(spec.Selects, extra)
			stream = append(stream, spec)
		}
	}
	return sch, cat, stream
}

// degradeAnswer is the answer-defining projection of a Result: everything a
// client can observe. Degradation may change cost (hit kinds, fire counts)
// but never any of these.
type degradeAnswer struct {
	optimized string
	empty     bool
	tags      any
}

func answerOf(r *sqo.Result) degradeAnswer {
	return degradeAnswer{optimized: r.Optimized.String(), empty: r.EmptyResult, tags: r.FinalTags()}
}

// TestDegradationDifferential is the safety proof behind the ladder: every
// degraded level must answer each request byte-identically to an unloaded
// engine serving the same request. Two reference points cover the ladder's
// two keying regimes — levels 0 and 1 both optimize the canonical form (so
// level 1 must match the full level-0 engine exactly, subsumption hits and
// all), while level 2 optimizes the raw form (so it must match a
// cacheless cold engine exactly). Either way the client sees an exact cold
// answer; what degrades is only what the answer costs.
func TestDegradationDifferential(t *testing.T) {
	sch, cat, stream := degradeStream(t, 40)
	cc := sqo.WithCache(sqo.CacheConfig{Capacity: 4096, Subsume: true})

	canonWant := replayAnswers(t, "level-0 baseline", sch, cat, stream, 0, cc)
	exactWant := replayRef(t, sch, cat, stream, sqo.CacheConfig{Capacity: 4096})

	for level := 1; level <= 2; level++ {
		want := canonWant
		ref := "level 0"
		if level >= 2 {
			want, ref = exactWant, "exact-cache-configured"
		}
		t.Run(fmt.Sprintf("level-%d", level), func(t *testing.T) {
			got := replayAnswers(t, fmt.Sprintf("level %d", level), sch, cat, stream, level, cc)
			for i := range stream {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("level %d diverges from the %s engine on query %d\nquery: %s\ngot:  %+v\nwant: %+v",
						level, ref, i, stream[i], got[i], want[i])
				}
			}
		})
	}
}

// replayRef replays the stream through an undegraded engine configured with
// cc — the reference a degraded engine must match byte-for-byte, because
// shedding a feature must behave exactly like never having enabled it.
func replayRef(t *testing.T, sch *sqo.Schema, cat *sqo.Catalog, stream []*sqo.Query, cc sqo.CacheConfig) []degradeAnswer {
	t.Helper()
	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat), sqo.WithCache(cc))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]degradeAnswer, len(stream))
	for i, q := range stream {
		res, err := eng.Optimize(context.Background(), q)
		if err != nil {
			t.Fatalf("reference replay: query %d: %v", i, err)
		}
		out[i] = answerOf(res)
	}
	return out
}

// replayAnswers runs the stream through a fresh engine pinned at one
// degradation level and returns each answer, asserting the level's shed
// optimizations really stayed off.
func replayAnswers(t *testing.T, label string, sch *sqo.Schema, cat *sqo.Catalog, stream []*sqo.Query, level int, opts ...sqo.EngineOption) []degradeAnswer {
	t.Helper()
	eng, err := sqo.NewEngine(sch, append([]sqo.EngineOption{sqo.WithCatalog(cat)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetDegradation(level)
	if got := eng.DegradationLevel(); got != level {
		t.Fatalf("%s: DegradationLevel = %d, want %d", label, got, level)
	}
	out := make([]degradeAnswer, len(stream))
	for i, q := range stream {
		res, err := eng.Optimize(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: query %d: %v", label, i, err)
		}
		out[i] = answerOf(res)
	}
	st := eng.Stats()
	if st.DegradationLevel != level {
		t.Fatalf("%s: Stats().DegradationLevel = %d, want %d", label, st.DegradationLevel, level)
	}
	if level == 0 && st.Cache.SubsumptionHits == 0 {
		t.Fatalf("%s: replay produced no subsumption hits; stream does not exercise the semantic cache", label)
	}
	if level >= 1 && st.Cache.SubsumptionHits != 0 {
		t.Fatalf("%s: served %d subsumption hits; probing must be off", label, st.Cache.SubsumptionHits)
	}
	if level >= 2 && st.Cache.CanonicalHits != 0 {
		t.Fatalf("%s: served %d canonical hits; canonicalization must be off", label, st.Cache.CanonicalHits)
	}
	return out
}

// TestDegradationMidFlightToggle changes the level while the cache is warm:
// entries keyed canonically at level 0 must never produce a wrong answer
// after the engine drops to raw-fingerprint keying, and recovery back to
// level 0 must be equally invisible.
func TestDegradationMidFlightToggle(t *testing.T) {
	sch, cat, stream := degradeStream(t, 25)
	cc := sqo.WithCache(sqo.CacheConfig{Capacity: 4096, Subsume: true})

	// The two honest answer sets: the canonical-path answer (levels 0-1)
	// and the exact-cache-path answer (level 2). A mid-flight toggle may
	// serve either — a raw-keyed lookup can legitimately land on a
	// canonical-keyed entry, but only when the two forms share a fingerprint,
	// in which case the entry is the canonical answer of the same request.
	// What it must never serve is anything outside the pair.
	canonWant := replayAnswers(t, "canonical reference", sch, cat, stream, 0, cc)
	exactWant := replayRef(t, sch, cat, stream, sqo.CacheConfig{Capacity: 4096})

	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat), cc)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, want ...[]degradeAnswer) {
		t.Helper()
		for i, q := range stream {
			res, err := eng.Optimize(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: query %d: %v", label, i, err)
			}
			got := answerOf(res)
			ok := false
			for _, w := range want {
				if reflect.DeepEqual(got, w[i]) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("%s: diverges on query %d\nquery: %s\ngot: %+v", label, i, q, got)
			}
		}
	}
	check("warmup at level 0", canonWant)
	eng.SetDegradation(2)
	check("degraded over a level-0-warmed cache", exactWant, canonWant)
	eng.SetDegradation(0)
	check("recovered over a mixed-key cache", canonWant)

	// Out-of-range pins clamp instead of corrupting the gate comparisons.
	eng.SetDegradation(99)
	if got := eng.DegradationLevel(); got != 2 {
		t.Fatalf("SetDegradation(99) pinned level %d, want clamp to 2", got)
	}
	eng.SetDegradation(-4)
	if got := eng.DegradationLevel(); got != 0 {
		t.Fatalf("SetDegradation(-4) pinned level %d, want clamp to 0", got)
	}
}

// TestQuarantineAfterRepeatedPanics injects a sticky optimizer panic and
// walks the whole poison-query lifecycle: two recovered panics (each an
// honest error, not a crash), the quarantine short-circuit on the third
// arrival, the register/stat surfaces, and reset re-arming the query.
func TestQuarantineAfterRepeatedPanics(t *testing.T) {
	t.Setenv(faultinject.EnvVar, "seed=9,optimize.panic=1:poison")
	eng, err := sqo.NewEngine(datagen.Schema(), sqo.WithCatalog(datagen.Constraints()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := figure23Query()

	for strike := 1; strike <= 2; strike++ {
		_, err := eng.Optimize(ctx, q)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("strike %d", strike)) {
			t.Fatalf("attempt %d: err = %v, want recovered panic with strike %d", strike, err, strike)
		}
	}
	_, err = eng.Optimize(ctx, q)
	var qe *sqo.QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("third attempt err = %v, want QuarantinedError", err)
	}

	st := eng.Stats()
	if st.PanicsRecovered != 2 {
		t.Fatalf("PanicsRecovered = %d, want 2", st.PanicsRecovered)
	}
	if st.Quarantine.Strikes != 2 || st.Quarantine.Quarantined != 1 || st.Quarantine.Blocked != 1 {
		t.Fatalf("quarantine stats = %+v, want 2 strikes / 1 quarantined / 1 blocked", st.Quarantine)
	}
	ents := eng.QuarantineEntries()
	if len(ents) != 1 || !ents[0].Active || ents[0].Strikes != 2 {
		t.Fatalf("quarantine register = %+v, want one active 2-strike entry", ents)
	}

	if n := eng.QuarantineReset(); n != 1 {
		t.Fatalf("QuarantineReset dropped %d entries, want 1", n)
	}
	if _, err := eng.Optimize(ctx, q); err == nil || !strings.Contains(err.Error(), "strike 1") {
		t.Fatalf("post-reset err = %v, want the query re-armed at strike 1", err)
	}

	// A catalog delta does not re-arm a quarantined query. With a cache
	// on, the quarantine key is the cache key; a delta that interns the
	// query's predicate (in an antecedent of a rule irrelevant to the
	// query) must not move it.
	cached, err := sqo.NewEngine(datagen.Schema(), sqo.WithCatalog(datagen.Constraints()),
		sqo.WithCache(sqo.CacheConfig{Capacity: 16}))
	if err != nil {
		t.Fatal(err)
	}
	// driver.licenseClass >= 9 appears in no logistics constraint.
	poison := sqo.NewQuery("driver").
		AddProject("driver", "name").
		AddSelect(sqo.Sel("driver", "licenseClass", sqo.OpGE, sqo.IntValue(9)))
	for strike := 1; strike <= 2; strike++ {
		if _, err := cached.Optimize(ctx, poison); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("strike %d", strike)) {
			t.Fatalf("cached engine attempt %d: err = %v, want recovered panic with strike %d", strike, err, strike)
		}
	}
	interning := sqo.NewConstraint("zquar",
		[]sqo.Predicate{sqo.Sel("driver", "licenseClass", sqo.OpGE, sqo.IntValue(9))},
		[]string{"drives"},
		sqo.Sel("vehicle", "class", sqo.OpLE, sqo.IntValue(9)))
	if _, err := cached.UpdateCatalog(sqo.NewCatalogDelta().AddConstraints(interning)); err != nil {
		t.Fatal(err)
	}
	if _, err := cached.Optimize(ctx, poison); !errors.As(err, &qe) {
		t.Fatalf("after a delta interning its predicate: err = %v, want QuarantinedError", err)
	}
}

// TestExecutePanicRecovered pins the execution-side guard: an injected panic
// inside the metered run loop surfaces as an error on that request, with the
// engine fully serviceable afterwards.
func TestExecutePanicRecovered(t *testing.T) {
	t.Setenv(faultinject.EnvVar, "seed=5,execute.panic=1:poison")
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(sqo.LogisticsConstraints()), sqo.WithDatabase(db))
	if err != nil {
		t.Fatal(err)
	}
	q := figure23Query()
	if _, err := eng.Execute(context.Background(), q); err == nil ||
		!strings.Contains(err.Error(), "panic (recovered") {
		t.Fatalf("Execute err = %v, want recovered panic", err)
	}
	if eng.Stats().PanicsRecovered == 0 {
		t.Fatal("recovered execute panic not counted")
	}
	// Optimization is untouched by execute-path injection.
	if _, err := eng.Optimize(context.Background(), q); err != nil {
		t.Fatalf("Optimize after execute panic: %v", err)
	}
}

// TestStorageFaultErrors pins the storage seam: injected storage errors
// surface as plain errors from Execute (wrapped so errors.Is sees the
// injection sentinel), never as panics, and never touch Optimize.
func TestStorageFaultErrors(t *testing.T) {
	t.Setenv(faultinject.EnvVar, "seed=5,storage.scan=1,storage.get=1,storage.lookup=1,storage.traverse=1")
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(sqo.LogisticsConstraints()), sqo.WithDatabase(db))
	if err != nil {
		t.Fatal(err)
	}
	q := figure23Query()
	if _, err := eng.Optimize(context.Background(), q); err != nil {
		t.Fatalf("Optimize under storage faults: %v", err)
	}
	_, err = eng.Execute(context.Background(), q)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Execute err = %v, want wrapped faultinject.ErrInjected", err)
	}
}
