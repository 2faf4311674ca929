package index

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sqo/internal/chunked"
	"sqo/internal/constraint"
	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/symtab"
	"sqo/internal/value"
)

func ixRule(id string, antClass, consClass string, val string, links ...string) *constraint.Constraint {
	return constraint.New(id,
		[]predicate.Predicate{predicate.Eq(antClass, "x", value.String(val))},
		links,
		predicate.Eq(consClass, "x", value.String(val+"'")))
}

// patchHarness drives a sequence of (removed, added) patches and compares
// the patched index against a from-scratch build over the live set after
// every step: identical Relevant output for probe queries and identical
// stats.
type patchHarness struct {
	t    *testing.T
	syms *symtab.Table
	ix   *Index
	lin  *Lineage
	all  []*constraint.Constraint // ordinal space mirror
	dead map[int]bool
}

func newPatchHarness(t *testing.T, base []*constraint.Constraint) *patchHarness {
	syms := symtab.Compile(nil, base)
	ix := BuildWith(base, syms)
	return &patchHarness{
		t:    t,
		syms: syms,
		ix:   ix,
		lin:  NewLineage(ix),
		all:  append([]*constraint.Constraint(nil), base...),
		dead: map[int]bool{},
	}
}

func (h *patchHarness) step(removedIDs []string, added []*constraint.Constraint, probes []*query.Query) {
	h.t.Helper()
	var removed []int32
	for _, id := range removedIDs {
		found := false
		for ord, c := range h.all {
			if !h.dead[ord] && c.ID == id {
				removed = append(removed, int32(ord))
				h.dead[ord] = true
				found = true
				break
			}
		}
		if !found {
			h.t.Fatalf("harness: no live constraint %q", id)
		}
	}
	newSyms, addedOrds := h.syms.Patch(added)
	h.ix = h.ix.Patch(h.lin, newSyms, removed, added, addedOrds)
	h.syms = newSyms
	h.all = append(h.all, added...)

	var live []*constraint.Constraint
	for ord, c := range h.all {
		if !h.dead[ord] {
			live = append(live, c)
		}
	}
	ref := BuildWith(live, symtab.Compile(nil, live))

	if got, want := h.ix.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
		h.t.Fatalf("stats diverge after patch\npatched: %+v\nscratch: %+v", got, want)
	}
	for _, q := range probes {
		got, want := h.ix.Relevant(q), ref.Relevant(q)
		if len(got) != len(want) {
			h.t.Fatalf("Relevant(%v) sizes diverge: %d vs %d", q.Classes, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				h.t.Fatalf("Relevant(%v)[%d] = %s, scratch %s", q.Classes, i, got[i].ID, want[i].ID)
			}
		}
	}
}

func TestPatchRelevantAndStats(t *testing.T) {
	base := []*constraint.Constraint{
		ixRule("r1", "a", "a", "u"),
		ixRule("r2", "a", "b", "v"),
		ixRule("r3", "b", "b", "w"),
		ixRule("r4", "c", "c", "z"),
	}
	probes := []*query.Query{
		query.New("a"), query.New("b"), query.New("c"),
		query.New("a", "b"), query.New("a", "b", "c"),
	}
	h := newPatchHarness(t, base)

	h.step(nil, []*constraint.Constraint{ixRule("r5", "c", "a", "q")}, probes)
	h.step([]string{"r2"}, nil, probes)
	h.step([]string{"r5"}, []*constraint.Constraint{ixRule("r6", "d", "d", "n")}, probes)
	// Re-add a previously removed rule: tombstoned symbols, fresh ordinal.
	h.step(nil, []*constraint.Constraint{base[1]}, probes)
	// Empty out a class completely.
	h.step([]string{"r4"}, nil, probes)
}

// TestPatchRehoming forces the rarest-class choice of an untouched
// constraint to flip: removing rules that reference class b makes b rarer
// than a, so the surviving a∧b rule must re-home from a to b exactly as a
// from-scratch build would decide.
func TestPatchRehoming(t *testing.T) {
	ab := constraint.New("ab",
		[]predicate.Predicate{predicate.Eq("a", "x", value.String("u"))},
		nil,
		predicate.Eq("b", "x", value.String("v")))
	base := []*constraint.Constraint{
		ab,
		ixRule("b1", "b", "b", "1"),
		ixRule("b2", "b", "b", "2"),
		ixRule("a1", "a", "a", "1"),
	}
	// freq: a=2 (ab, a1), b=3 (ab, b1, b2) -> ab homes at a.
	h := newPatchHarness(t, base)
	if got := h.lin.homeOf[0]; h.ix.syms.ClassName(symtab.ClassID(got)) != "a" {
		t.Fatalf("precondition: ab homed at %q, want a", h.ix.syms.ClassName(symtab.ClassID(got)))
	}
	// Remove b1 and b2: freq a=2, b=1 -> ab must re-home to b.
	probes := []*query.Query{query.New("a"), query.New("b"), query.New("a", "b")}
	h.step([]string{"b1", "b2"}, nil, probes)
	if got := h.lin.homeOf[0]; h.ix.syms.ClassName(symtab.ClassID(got)) != "b" {
		t.Fatalf("ab homed at %q after the delta, want b", h.ix.syms.ClassName(symtab.ClassID(got)))
	}
}

// TestPatchLateSymbolsQuery: within a lineage the symbol maps are shared,
// so an old generation can resolve a class a later generation interned —
// with an ID beyond the old generation's posting spine. Queries naming such
// a class must be served (the class is unreferenced in that generation),
// not panic.
func TestPatchLateSymbolsQuery(t *testing.T) {
	base := []*constraint.Constraint{
		ixRule("r1", "a", "a", "u"),
	}
	h := newPatchHarness(t, base)
	q := query.New("a")
	h.step(nil, []*constraint.Constraint{ixRule("r2", "b", "b", "v")}, []*query.Query{q})
	gen1 := h.ix // knows classes a, b
	// Advance the lineage with a brand-new class c; gen1 must keep serving
	// queries that mention it.
	h.step(nil, []*constraint.Constraint{ixRule("r3", "c", "c", "w")}, []*query.Query{q})

	got := gen1.Relevant(query.New("a", "c"))
	if len(got) != 1 || got[0].ID != "r1" {
		t.Fatalf("old generation Relevant with a late-interned class = %v", got)
	}
}

// TestPatchOldGenerationUntouched: a published index keeps serving its own
// generation's retrieval while patches advance the lineage.
func TestPatchOldGenerationUntouched(t *testing.T) {
	base := []*constraint.Constraint{
		ixRule("r1", "a", "a", "u"),
		ixRule("r2", "b", "b", "v"),
	}
	h := newPatchHarness(t, base)
	old := h.ix
	oldStats := old.Stats()

	q := query.New("a", "b")
	before := old.Relevant(q)
	h.step([]string{"r1"}, []*constraint.Constraint{ixRule("r3", "a", "a", "w")}, []*query.Query{q})

	if !reflect.DeepEqual(old.Stats(), oldStats) {
		t.Fatal("patch changed the published generation's stats")
	}
	after := old.Relevant(q)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("patch changed the published generation's retrieval")
	}
	// The old generation still returns r1 (its generation's truth), the
	// new one does not.
	found := false
	for _, c := range after {
		if c.ID == "r1" {
			found = true
		}
	}
	if !found {
		t.Fatal("old generation lost a constraint it should still serve")
	}
	for _, c := range h.ix.Relevant(q) {
		if c.ID == "r1" {
			t.Fatal("new generation serves a removed constraint")
		}
	}
}

// TestPatchAcrossChunks patches an index whose class and attribute spines
// span several chunks about 300 times, each patch removing an early rule
// and adding one on other classes, so patches rewrite posting rows in
// chunks every earlier generation still serves from. The newest generation
// must retrieve what a from-scratch build does, and the first one, read
// concurrently while the patches run, must keep its Relevant,
// AntecedentMatches and Stats.
func TestPatchAcrossChunks(t *testing.T) {
	const classes, base, added = 600, 1000, 300
	class := func(i int) string { return fmt.Sprintf("k%03d", i%classes) }
	rule := func(i int) *constraint.Constraint {
		return ixRule(fmt.Sprintf("r%d", i), class(i), class(7*i+3), fmt.Sprintf("v%d", i))
	}
	var all []*constraint.Constraint
	for i := 0; i < base; i++ {
		all = append(all, rule(i))
	}
	h := newPatchHarness(t, all)
	if n := h.syms.NumClasses(); n < 4*chunked.Size {
		t.Fatalf("%d classes span too few chunks", n)
	}
	var probes []*query.Query
	for i := 0; i < classes; i++ {
		probes = append(probes, query.New(class(i)), query.New(class(i), class(7*i+3)))
	}

	// view is what a generation serves: constraint IDs per probe and per
	// early antecedent, plus its stats.
	type view struct {
		relevant, matches [][]string
		stats             Stats
	}
	look := func(ix *Index) view {
		v := view{stats: ix.Stats()}
		for _, q := range probes {
			var ids []string
			for _, c := range ix.Relevant(q) {
				ids = append(ids, c.ID)
			}
			v.relevant = append(v.relevant, ids)
		}
		for _, c := range all[:base] {
			var ids []string
			for _, m := range ix.AntecedentMatches(c.Antecedents[0]) {
				ids = append(ids, fmt.Sprintf("%s/%d/%d", m.Constraint.ID, m.Ordinal, m.AntPos))
			}
			v.matches = append(v.matches, ids)
		}
		return v
	}
	first := h.ix
	want := look(first)

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
			if !reflect.DeepEqual(look(first), want) {
				t.Error("the first generation's retrieval changed while later patches ran")
				return
			}
		}
	}()
	for i := base; i < base+added; i++ {
		removed := []int32{int32(3 * (i - base))}
		h.dead[int(removed[0])] = true
		added := []*constraint.Constraint{rule(i)}
		newSyms, addedOrds := h.syms.Patch(added)
		h.ix = h.ix.Patch(h.lin, newSyms, removed, added, addedOrds)
		h.syms = newSyms
		h.all = append(h.all, added...)
	}
	close(stop)
	wg.Wait()

	if !reflect.DeepEqual(look(first), want) {
		t.Fatal("the first generation's retrieval changed after later patches")
	}
	var live []*constraint.Constraint
	for ord, c := range h.all {
		if !h.dead[ord] {
			live = append(live, c)
		}
	}
	ref := BuildWith(live, symtab.Compile(nil, live))
	got, scratch := look(h.ix), look(ref)
	if !reflect.DeepEqual(got.relevant, scratch.relevant) || got.stats != scratch.stats {
		t.Fatalf("patched index diverges from a from-scratch build\npatched stats %+v\nscratch stats %+v", got.stats, scratch.stats)
	}
}
