package sqo

import (
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

	// And through the engine's interned-ID hashing.
	eng, err := NewEngine(datagen.Schema(), WithCatalog(datagen.Constraints()))
	if err != nil {
		t.Fatal(err)
	}
	st := eng.state.Load()
	if st.syms == nil {
		t.Fatal("engine state carries no symbol space")
	}
	if fingerprintWith(a, st.syms) != fingerprintWith(b, st.syms) {
		t.Error("interned fingerprints diverge under list reordering")
	}
	if fingerprintWith(a, st.syms) == Fingerprint(a) {
		t.Log("note: interned and content fingerprints coincide (harmless but unexpected)")
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
}

// TestFingerprintCollisionSanity sweeps the full differential workload — the
// logistics world plus two scaled worlds, well over a thousand distinct
// queries — and requires every distinct Signature to map to a distinct
// fingerprint, in both content and interned-ID hashing. 128 bits make a real
// collision astronomically unlikely; this guards against structural mistakes
// (dropped sections, aliasing ID spaces), not hash luck.
func TestFingerprintCollisionSanity(t *testing.T) {
	type world struct {
		label string
		qs    []*Query
		syms  func() *engineState
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
	engL, err := NewEngine(db.Schema(), WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, world{"logistics", logistics, engL.state.Load})

	for _, n := range []int{100, 1000} {
		sch, scat, err := GenerateScaledWorld(ScaledConfig{Constraints: n, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		qs, err := ScaledWorkload(sch, scat, 400, 17)
		if err != nil {
			t.Fatal(err)
		}
		engS, err := NewEngine(sch, WithCatalog(scat))
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, world{"scaled", qs, engS.state.Load})
	}

	total := 0
	for _, w := range worlds {
		st := w.syms()
		content := map[QueryFingerprint]string{}
		interned := map[QueryFingerprint]string{}
		for _, q := range w.qs {
			sig := q.Signature()
			fp := Fingerprint(q)
			if prev, ok := content[fp]; ok && prev != sig {
				t.Fatalf("%s: content fingerprint collision:\n%s\n%s", w.label, prev, sig)
			}
			content[fp] = sig
			ifp := fingerprintWith(q, st.syms)
			if prev, ok := interned[ifp]; ok && prev != sig {
				t.Fatalf("%s: interned fingerprint collision:\n%s\n%s", w.label, prev, sig)
			}
			interned[ifp] = sig
			total++
		}
	}
	if total < 1000 {
		t.Fatalf("collision sweep covered only %d queries, want >= 1000", total)
	}
}

// TestCacheKeyFoldsEpoch: the epoch is part of the hashed key struct, so the
// same query under different catalog generations can never share a cache
// slot — the invariant that used to ride on a string prefix.
func TestCacheKeyFoldsEpoch(t *testing.T) {
	eng, err := NewEngine(datagen.Schema(), WithCatalog(datagen.Constraints()), WithCache(CacheConfig{Capacity: 8}))
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery("vehicle").AddProject("vehicle", "vehicle#")
	before := cacheKeyFor(eng.state.Load(), q)
	if err := eng.SwapCatalog(datagen.Constraints()); err != nil {
		t.Fatal(err)
	}
	after := cacheKeyFor(eng.state.Load(), q)
	if before == after {
		t.Fatal("cache keys identical across catalog generations")
	}
	if before.epoch == after.epoch {
		t.Fatalf("epoch did not advance: %d", before.epoch)
	}
}

// TestCanonFingerprintMatchesMaterialized: the streaming canonical
// fingerprint (reduction survivors hashed in place) must equal the plain
// fingerprint of the materialized canonical query — in both the content and
// the interned-ID hash spaces — across a generated workload plus handcrafted
// reduction-heavy shapes. This is the identity the cache's canonical lookup
// path rides on.
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

	eng, err := NewEngine(db.Schema(), WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	syms := eng.state.Load().syms
	if syms == nil {
		t.Fatal("engine state carries no symbol space")
	}

	var red canon.Reduction
	for i, q := range qs {
		cq, _ := canon.Canonical(q)
		if got, want := canonFingerprintWith(q, nil, &red), fingerprintWith(cq, nil); got != want {
			t.Fatalf("q%d: streaming content fingerprint %v != materialized %v\nquery: %s\ncanon: %s",
				i, got, want, q, cq)
		}
		if got, want := canonFingerprintWith(q, syms, &red), fingerprintWith(cq, syms); got != want {
			t.Fatalf("q%d: streaming interned fingerprint %v != materialized %v\nquery: %s\ncanon: %s",
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
	if envelopeFingerprintWith(g, nil) != envelopeFingerprintWith(s, nil) {
		t.Error("envelope fingerprints diverge across selective-only difference")
	}
	other := NewQuery("supplier", "cargo", "vehicle").
		AddProject("cargo", "desc").
		AddRelationship("supplies").
		AddSelect(Eq("supplier", "name", StringValue("SFI")))
	if envelopeFingerprintWith(g, nil) == envelopeFingerprintWith(other, nil) {
		t.Error("envelope fingerprints collide across different class sets")
	}
}
