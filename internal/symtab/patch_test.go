package symtab

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sqo/internal/chunked"
	"sqo/internal/constraint"
	"sqo/internal/predicate"
	"sqo/internal/value"
)

func patchRule(id, class, val string, bound int64) *constraint.Constraint {
	return constraint.New(id,
		[]predicate.Predicate{predicate.Eq(class, "x", value.String(val))},
		nil,
		predicate.Sel(class, "y", predicate.LE, value.Int(bound)))
}

// adjacencyByKey renders a table's implication adjacency as predicate-key
// sets, so tables with different PredID numberings compare semantically.
func adjacencyByKey(t *Table) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for id := 0; id < t.NumPreds(); id++ {
		set := map[string]bool{}
		for _, j := range t.Implies(PredID(id)) {
			set[t.Pred(j).Key()] = true
		}
		out[t.Pred(PredID(id)).Key()] = set
	}
	return out
}

// TestPatchMatchesCompile: a patched table must resolve every symbol of the
// combined constraint set exactly as a from-scratch compile does, while
// keeping every pre-patch ID stable.
func TestPatchMatchesCompile(t *testing.T) {
	base := []*constraint.Constraint{
		patchRule("r1", "a", "u", 10),
		patchRule("r2", "a", "v", 20),
	}
	added := []*constraint.Constraint{
		patchRule("r3", "a", "u", 5),  // shares r1's antecedent predicate
		patchRule("r4", "b", "w", 30), // brand-new class
	}
	t0 := Compile(nil, base)
	prePreds, preClasses := t0.NumPreds(), t0.NumClasses()

	t1, ords := t0.Patch(added)
	if want := []int32{2, 3}; !reflect.DeepEqual(ords, want) {
		t.Fatalf("added ordinals = %v, want %v", ords, want)
	}
	// Receiver untouched.
	if t0.NumPreds() != prePreds || t0.NumClasses() != preClasses {
		t.Fatal("patch mutated the receiver's symbol counts")
	}
	if _, ok := t0.Ordinal(added[0]); ok {
		t.Fatal("old generation resolves a constraint added after it was taken")
	}

	// Stability: every base symbol keeps its ID.
	for i, c := range base {
		ord, ok := t1.Ordinal(c)
		if !ok || ord != i {
			t.Fatalf("base constraint %d moved to ordinal %d (ok=%v)", i, ord, ok)
		}
		c0, _ := t0.CompiledFor(c)
		c1, _ := t1.CompiledFor(c)
		if c0.Cons != c1.Cons || !reflect.DeepEqual(c0.Ants, c1.Ants) {
			t.Fatalf("compiled form of base constraint %d changed", i)
		}
	}
	// Shared predicates resolve to the same ID; new ones appended.
	id0, _ := t0.PredID(added[0].Antecedents[0])
	id1, ok := t1.PredID(added[0].Antecedents[0])
	if !ok || id0 != id1 {
		t.Fatalf("shared predicate re-interned: %d vs %d", id0, id1)
	}

	// Equivalence with a from-scratch compile over the combined list.
	ref := Compile(nil, append(append([]*constraint.Constraint(nil), base...), added...))
	if t1.NumPreds() != ref.NumPreds() || t1.NumClasses() != ref.NumClasses() ||
		t1.NumAttrs() != ref.NumAttrs() || t1.NumSigs() != ref.NumSigs() {
		t.Fatalf("symbol counts diverge: patched preds=%d classes=%d attrs=%d sigs=%d, scratch %d/%d/%d/%d",
			t1.NumPreds(), t1.NumClasses(), t1.NumAttrs(), t1.NumSigs(),
			ref.NumPreds(), ref.NumClasses(), ref.NumAttrs(), ref.NumSigs())
	}
	if got, want := adjacencyByKey(t1), adjacencyByKey(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("implication adjacency diverges\npatched: %v\nscratch: %v", got, want)
	}
}

// TestPatchTombstoneReuse: removals never touch the symbol space, so
// re-adding a constraint (or a new constraint over the same predicates)
// reuses the tombstoned symbols instead of minting fresh IDs — and the same
// constraint pointer resolves to its newest ordinal.
func TestPatchTombstoneReuse(t *testing.T) {
	r1 := patchRule("r1", "a", "u", 10)
	r2 := patchRule("r2", "a", "v", 20)
	t0 := Compile(nil, []*constraint.Constraint{r1, r2})

	// "Remove" r2 (a symtab no-op) and re-add it via patch: the pool must
	// not grow — every symbol is tombstone-reused — while r2 moves to a
	// fresh ordinal.
	t1, ords := t0.Patch([]*constraint.Constraint{r2})
	if t1.NumPreds() != t0.NumPreds() || t1.NumSigs() != t0.NumSigs() {
		t.Fatalf("re-adding an existing rule grew the symbol space: preds %d->%d",
			t0.NumPreds(), t1.NumPreds())
	}
	if ord, ok := t1.Ordinal(r2); !ok || ord != int(ords[0]) || ord != 2 {
		t.Fatalf("re-added constraint ordinal = %d (ok=%v), want 2", ord, ok)
	}
	comp := t1.CompiledAt(2)
	orig := t1.CompiledAt(1)
	if comp.Cons != orig.Cons || !reflect.DeepEqual(comp.Ants, orig.Ants) {
		t.Fatal("re-added constraint compiled to different predicate IDs")
	}

	// A second patch on the already-live lineage shares the maps.
	r3 := patchRule("r3", "a", "u", 10) // logically r1's twin with a new id
	t2, _ := t1.Patch([]*constraint.Constraint{r3})
	if t2.NumPreds() != t1.NumPreds() {
		t.Fatal("twin rule should reuse every predicate symbol")
	}
	if id1, _ := t1.PredID(r1.Antecedents[0]); func() PredID { id, _ := t2.PredID(r3.Antecedents[0]); return id }() != id1 {
		t.Fatal("tombstone-reused predicate changed IDs across patches")
	}
}

// TestPatchConcurrentReads: old generations must serve lookups concurrently
// while patches advance the lineage (meaningful under -race).
func TestPatchConcurrentReads(t *testing.T) {
	base := []*constraint.Constraint{patchRule("r1", "a", "u", 10)}
	t0 := Compile(nil, base)
	t1, _ := t0.Patch([]*constraint.Constraint{patchRule("r2", "a", "v", 20)})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			if _, ok := t1.PredID(base[0].Antecedents[0]); !ok {
				t.Error("lookup lost during concurrent patching")
				return
			}
			t1.ClassID("a")
			t1.Ordinal(base[0])
			t1.SigOrdinalOf(base[0].Consequent)
		}
	}()
	cur := t1
	for i := 0; i < 40; i++ {
		cur, _ = cur.Patch([]*constraint.Constraint{
			patchRule("g"+string(rune('A'+i)), "a", "w"+string(rune('A'+i)), int64(i)),
		})
	}
	<-done
}

// overlayEntries counts the symbols a lineage's overlay holds, across all of
// its maps.
func overlayEntries(tab *Table) int {
	if tab.over == nil {
		return 0
	}
	n := 0
	for _, m := range []*sync.Map{&tab.over.classIDs, &tab.over.attrIDs, &tab.over.sigIDs, &tab.over.predIDs, &tab.over.ordOf} {
		m.Range(func(any, any) bool { n++; return true })
	}
	return n
}

// TestFirstPatchOverlayHoldsOnlyTheDelta is the counted gate on a
// lineage's first patch: it must cost O(|delta|), not copy the base into
// the overlay. The added rule reuses an existing antecedent, classes,
// attribute and signature and mints exactly one predicate (its consequent)
// and one ordinal, so the overlay must hold exactly those two entries.
func TestFirstPatchOverlayHoldsOnlyTheDelta(t *testing.T) {
	sch, cat := testWorld(t)
	t0 := Compile(sch, cat.All())
	rule := constraint.New("c5",
		[]predicate.Predicate{predicate.Sel("cargo", "weight", predicate.GT, value.Int(100))},
		[]string{"collects"},
		predicate.Sel("vehicle", "capacity", predicate.GE, value.Int(5)))

	t1, ords := t0.Patch([]*constraint.Constraint{rule})
	if got := overlayEntries(t1); got != 2 {
		t.Fatalf("first patch left %d overlay entries, want 2 (one predicate, one ordinal)", got)
	}
	if t1.NumClasses() != t0.NumClasses() || t1.NumAttrs() != t0.NumAttrs() || t1.NumSigs() != t0.NumSigs() {
		t.Fatal("the rule was meant to mint no class, attribute or signature")
	}
	if ord, ok := t1.Ordinal(rule); !ok || ord != int(ords[0]) || ord != cat.Len() {
		t.Fatalf("Ordinal(new rule) = %d, %v; want %d", ord, ok, cat.Len())
	}
	if id, ok := t1.PredID(rule.Consequent); !ok || int(id) != t0.NumPreds() {
		t.Fatalf("PredID(new consequent) = %d, %v; want %d", id, ok, t0.NumPreds())
	}
	if _, ok := t0.Ordinal(rule); ok {
		t.Fatal("the base generation resolves a rule its lineage added later")
	}
	for i, c := range cat.All() {
		if ord, ok := t1.Ordinal(c); !ok || ord != i {
			t.Fatalf("base constraint %s resolves to %d, %v through the patched generation", c.ID, ord, ok)
		}
	}
}

// TestSupersededGenerationKeepsOrdinals: a generation a later re-add
// superseded still resolves every constraint it holds. Queries in flight on
// it during an A→B→A catalog swap look their rows up this way, so a lookup
// that loses a constraint there fails the query. Two shapes: a patch-added
// constraint removed and re-added (twice), and a base constraint re-added
// after the lineage already has an overlay.
func TestSupersededGenerationKeepsOrdinals(t *testing.T) {
	r1, r2 := patchRule("r1", "a", "u", 10), patchRule("r2", "a", "v", 20)
	x := patchRule("x", "a", "w", 30)
	t0 := Compile(nil, []*constraint.Constraint{r1, r2})
	t1, _ := t0.Patch([]*constraint.Constraint{x}) // x at 2
	// Removing x is a symtab no-op; re-adding it patches it in at 3.
	t2, _ := t1.Patch([]*constraint.Constraint{x})
	t3, _ := t2.Patch([]*constraint.Constraint{r1}) // base r1 re-added at 4
	t4, _ := t3.Patch([]*constraint.Constraint{x})  // x again, at 5

	cases := []struct {
		name string
		tab  *Table
		c    *constraint.Constraint
		want int // -1: not held
	}{
		{"base/x", t0, x, -1},
		{"base/r1", t0, r1, 0},
		{"gen1/x", t1, x, 2},
		{"gen1/r1", t1, r1, 0},
		{"gen2/x", t2, x, 3},
		{"gen2/r1", t2, r1, 0},
		{"gen3/x", t3, x, 3},
		{"gen3/r1", t3, r1, 4},
		{"gen4/x", t4, x, 5},
		{"gen4/r1", t4, r1, 4},
		{"gen4/r2", t4, r2, 1},
	}
	for _, tc := range cases {
		ord, ok := tc.tab.Ordinal(tc.c)
		if tc.want < 0 {
			if ok {
				t.Errorf("%s: Ordinal = %d, want not held", tc.name, ord)
			}
			continue
		}
		if !ok || ord != tc.want {
			t.Errorf("%s: Ordinal = %d, %v; want %d", tc.name, ord, ok, tc.want)
		}
	}
}

// adjacencyRows copies a table's implication adjacency by PredID.
func adjacencyRows(tab *Table) (fwd, rev [][]PredID) {
	for id := PredID(0); int(id) < tab.NumPreds(); id++ {
		fwd = append(fwd, slices.Clone(tab.Implies(id)))
		rev = append(rev, slices.Clone(tab.ImpliedBy(id)))
	}
	return fwd, rev
}

// TestPatchAcrossChunks patches a catalog whose adjacency spans many chunks
// about 300 times. Every added rule shares its signatures with early rules
// and implies or is implied by their predicates, so each patch writes rows
// in chunks every earlier generation still serves from. The newest
// generation must match a from-scratch compile, and the earlier ones,
// the first read concurrently while the patches run, must keep their own
// adjacency.
func TestPatchAcrossChunks(t *testing.T) {
	const classes, base, added = 8, 1000, 300
	rule := func(i int, bound int64) *constraint.Constraint {
		return patchRule(fmt.Sprintf("r%d", i), fmt.Sprintf("c%d", i%classes), fmt.Sprintf("v%d", i), bound)
	}
	var all []*constraint.Constraint
	for i := 0; i < base; i++ {
		all = append(all, rule(i, int64(10*i)))
	}
	cur := Compile(nil, all)
	if cur.NumPreds() < 8*chunked.Size {
		t.Fatalf("%d predicates span too few chunks", cur.NumPreds())
	}
	type gen struct {
		tab      *Table
		fwd, rev [][]PredID
	}
	snap := func(tab *Table) gen {
		fwd, rev := adjacencyRows(tab)
		return gen{tab, fwd, rev}
	}
	gens := []gen{snap(cur)}
	same := func(g gen) bool {
		for id := range g.fwd {
			if !slices.Equal(g.tab.Implies(PredID(id)), g.fwd[id]) ||
				!slices.Equal(g.tab.ImpliedBy(PredID(id)), g.rev[id]) {
				return false
			}
		}
		return true
	}

	first := gens[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !same(first) {
				t.Error("the first generation's adjacency changed while later patches ran")
				return
			}
		}
	}()
	for i := base; i < base+added; i++ {
		// Fresh bounds between the early ones: new predicates on the
		// early rules' signatures.
		c := rule(i, int64(10*(i-base)*3+5))
		cur, _ = cur.Patch([]*constraint.Constraint{c})
		all = append(all, c)
		if i%50 == 0 {
			gens = append(gens, snap(cur))
		}
	}
	close(stop)
	wg.Wait()

	if got, want := adjacencyByKey(cur), adjacencyByKey(Compile(nil, all)); !reflect.DeepEqual(got, want) {
		t.Fatal("patched implication adjacency diverges from a from-scratch compile")
	}
	for i, g := range gens {
		if !same(g) {
			t.Errorf("generation %d of %d: adjacency changed by later patches", i, len(gens))
		}
	}
}
