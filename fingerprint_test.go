package sqo

import (
	"context"
	"testing"

	"sqo/internal/canon"
	"sqo/internal/datagen"
)

// TestFingerprintOrderInsensitive: reordering any of the five query lists
// must not change the fingerprint — that is the cache-sharing contract the
// old string Signature gave and the hash must keep.
func TestFingerprintOrderInsensitive(t *testing.T) {
	a := NewQuery("supplier", "cargo", "vehicle").
		AddProject("vehicle", "vehicle#").
		AddProject("cargo", "desc").
		AddSelect(Eq("vehicle", "desc", StringValue("refrigerated truck"))).
		AddSelect(Eq("supplier", "name", StringValue("SFI"))).
		AddRelationship("collects").
		AddRelationship("supplies")
	b := NewQuery("vehicle", "supplier", "cargo").
		AddProject("cargo", "desc").
		AddProject("vehicle", "vehicle#").
		AddSelect(Eq("supplier", "name", StringValue("SFI"))).
		AddSelect(Eq("vehicle", "desc", StringValue("refrigerated truck"))).
		AddRelationship("supplies").
		AddRelationship("collects")
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("content fingerprints diverge under list reordering")
	}
}

// TestFingerprintSectionsDoNotBleed: moving an item between sections, or
// between classes of the same shape, must change the fingerprint.
func TestFingerprintSectionsDoNotBleed(t *testing.T) {
	base := NewQuery("a", "b")
	withClassC := NewQuery("a", "c")
	if Fingerprint(base) == Fingerprint(withClassC) {
		t.Error("different class lists share a fingerprint")
	}
	asRel := NewQuery("a", "b").AddRelationship("r")
	if Fingerprint(base) == Fingerprint(asRel) {
		t.Error("adding a relationship did not change the fingerprint")
	}
	// A class named like a relationship must hash differently from the
	// relationship: sections carry distinct tags.
	q1 := NewQuery("x").AddRelationship("y")
	q2 := NewQuery("y").AddRelationship("x")
	if Fingerprint(q1) == Fingerprint(q2) {
		t.Error("class and relationship sections bleed into each other")
	}
	// Swapping an attribute reference's class and attribute names must
	// change its hash: {x.y} and {y.x} are different projections.
	p1 := NewQuery("x", "y").AddProject("x", "y")
	p2 := NewQuery("x", "y").AddProject("y", "x")
	if Fingerprint(p1) == Fingerprint(p2) {
		t.Error("attribute references x.y and y.x share a fingerprint")
	}
}

// TestFingerprintCollisionSanity sweeps the full differential workload — the
// logistics world plus two scaled worlds, well over a thousand distinct
// queries — and requires every distinct Signature to map to a distinct
// fingerprint. 128 bits make a real collision astronomically unlikely; this
// guards against structural mistakes (dropped sections, aliasing item
// hashes), not hash luck.
func TestFingerprintCollisionSanity(t *testing.T) {
	type world struct {
		label string
		qs    []*Query
	}
	var worlds []world

	db, err := GenerateDatabase(DB1())
	if err != nil {
		t.Fatal(err)
	}
	cat := LogisticsConstraints()
	gen := NewWorkloadGenerator(db, cat, WorkloadOptions{Seed: 41})
	logistics, err := gen.Workload(240)
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, world{"logistics", logistics})

	for _, n := range []int{100, 1000} {
		sch, scat, err := GenerateScaledWorld(ScaledConfig{Constraints: n, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		qs, err := ScaledWorkload(sch, scat, 400, 17)
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, world{"scaled", qs})
	}

	total := 0
	for _, w := range worlds {
		content := map[QueryFingerprint]string{}
		for _, q := range w.qs {
			sig := q.Signature()
			fp := Fingerprint(q)
			if prev, ok := content[fp]; ok && prev != sig {
				t.Fatalf("%s: content fingerprint collision:\n%s\n%s", w.label, prev, sig)
			}
			content[fp] = sig
			total++
		}
	}
	if total < 1000 {
		t.Fatalf("collision sweep covered only %d queries, want >= 1000", total)
	}
}

// TestCacheKeyFoldsEpoch: cache keys are content fingerprints and carry no
// catalog generation, so the engine fences generations instead. After
// SwapCatalog to a catalog with one more rule relevant to the query, the
// entry cached before the swap is not served, and a result computed on the
// old generation that lands after the swap is refused.
func TestCacheKeyFoldsEpoch(t *testing.T) {
	eng, err := NewEngine(datagen.Schema(), WithCatalog(datagen.Constraints()), WithCache(CacheConfig{Capacity: 8}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := NewQuery("vehicle").AddProject("vehicle", "vehicle#")
	old := eng.state.Load()
	before, err := eng.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// An optimization on the old generation, still in flight across the swap.
	late, err := old.opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	plus := datagen.Constraints()
	if err := plus.Add(NewConstraint("fold",
		[]Predicate{Eq("vehicle", "desc", StringValue("scooter"))},
		nil,
		Sel("vehicle", "capacity", OpLE, IntValue(40)))); err != nil {
		t.Fatal(err)
	}
	if err := eng.SwapCatalog(plus); err != nil {
		t.Fatal(err)
	}
	if eng.state.Load().epoch == old.epoch {
		t.Fatalf("epoch did not advance: %d", old.epoch)
	}
	eng.cache.put(Fingerprint(q), old.epoch, late)
	if n := eng.cache.len(); n != 0 {
		t.Fatalf("cache holds %d entries after an old-generation put, want 0", n)
	}
	st := eng.Stats()
	after, err := eng.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if after == before || after == late {
		t.Fatal("a result of the old generation was served after the swap")
	}
	if eng.Stats().Cache.Misses != st.Cache.Misses+1 {
		t.Fatal("the first lookup after the swap was not a miss")
	}
}

// TestCanonFingerprintMatchesMaterialized: the streaming canonical
// fingerprint (reduction survivors hashed in place) must equal the plain
// fingerprint of the materialized canonical query across a generated
// workload plus handcrafted reduction-heavy shapes. This is the identity the
// cache's canonical lookup path rides on.
func TestCanonFingerprintMatchesMaterialized(t *testing.T) {
	db, err := GenerateDatabase(DB1())
	if err != nil {
		t.Fatal(err)
	}
	cat := LogisticsConstraints()
	gen := NewWorkloadGenerator(db, cat, WorkloadOptions{Seed: 97})
	qs, err := gen.Workload(120)
	if err != nil {
		t.Fatal(err)
	}
	qs = append(qs,
		// Duplicates, a dominated bound, an interval collapsing to an
		// equality, and a join tautology — every reduction rule at once.
		NewQuery("driver", "vehicle").
			AddProject("driver", "name").
			AddSelect(Sel("driver", "age", OpGE, IntValue(30))).
			AddSelect(Sel("driver", "age", OpGE, IntValue(30))).
			AddSelect(Sel("driver", "age", OpGE, IntValue(21))).
			AddSelect(Sel("driver", "age", OpLE, IntValue(30))).
			AddJoin(JoinPred("driver", "salary", OpEQ, "driver", "salary")).
			AddRelationship("drives"),
	)

	var red canon.Reduction
	for i, q := range qs {
		cq, _ := canon.Canonical(q)
		if got, want := canonFingerprint(q, &red), Fingerprint(cq); got != want {
			t.Fatalf("q%d: streaming fingerprint %v != materialized %v\nquery: %s\ncanon: %s",
				i, got, want, q, cq)
		}
	}
}

// TestEnvelopeFingerprint: queries differing only in selective conjuncts
// share an envelope fingerprint (that is what routes a containment probe to
// its candidate generalizations); queries differing in any envelope part do
// not.
func TestEnvelopeFingerprint(t *testing.T) {
	base := func() *Query {
		return NewQuery("supplier", "cargo").
			AddProject("cargo", "desc").
			AddRelationship("supplies")
	}
	g := base().AddSelect(Eq("supplier", "name", StringValue("SFI")))
	s := base().
		AddSelect(Eq("supplier", "name", StringValue("SFI"))).
		AddSelect(Sel("cargo", "weight", OpLE, IntValue(900)))
	if envelopeFingerprint(g) != envelopeFingerprint(s) {
		t.Error("envelope fingerprints diverge across selective-only difference")
	}
	other := NewQuery("supplier", "cargo", "vehicle").
		AddProject("cargo", "desc").
		AddRelationship("supplies").
		AddSelect(Eq("supplier", "name", StringValue("SFI")))
	if envelopeFingerprint(g) == envelopeFingerprint(other) {
		t.Error("envelope fingerprints collide across different class sets")
	}
}
