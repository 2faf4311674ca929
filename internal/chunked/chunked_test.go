package chunked

import (
	"slices"
	"testing"
)

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func check(t *testing.T, what string, v Vec[int], want []int) {
	t.Helper()
	if v.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", what, v.Len(), len(want))
	}
	for i, x := range want {
		if got := v.At(i); got != x {
			t.Fatalf("%s: At(%d) = %d, want %d", what, i, got, x)
		}
	}
	if got := v.Flat(); !slices.Equal(got, want) {
		t.Fatalf("%s: Flat differs from the elements", what)
	}
}

// TestEditAcrossChunks writes one element in every chunk and grows across
// a chunk boundary; the Vec the edit started from must not change.
func TestEditAcrossChunks(t *testing.T) {
	n := 3*Size + 5
	old := From(seq(n))
	want := seq(n)

	e := old.Edit()
	for c := 0; c*Size < n; c++ {
		i := c*Size + c // one element per chunk, the partial last one included
		e.Set(i, -i)
		want[i] = -i
	}
	e.Grow(Size + 10) // fills the partial chunk, adds one full and one partial
	for i := n; i < n+Size+10; i++ {
		if got := e.At(i); got != 0 {
			t.Fatalf("grown element %d = %d, want 0", i, got)
		}
		want = append(want, 0)
	}
	e.Set(n, 7)
	e.Set(n+Size+9, 9)
	want[n], want[n+Size+9] = 7, 9
	nv := e.Done()

	check(t, "edited", nv, want)
	check(t, "original", old, seq(n))
}

// TestEditAfterDone: an edit that goes on after Done copies again, so the
// Vec it returned stays as it was.
func TestEditAfterDone(t *testing.T) {
	var e Edit[int]
	e.Grow(2*Size + 1)
	e.Set(0, 1)
	e.Set(Size, 2)
	first := e.Done()
	want := make([]int, 2*Size+1)
	want[0], want[Size] = 1, 2

	e.Set(0, 10)
	e.Set(Size, 20)
	e.Set(2*Size, 30)
	e.Grow(1)
	second := e.Done()

	check(t, "first", first, want)
	want2 := append(slices.Clone(want), 0)
	want2[0], want2[Size], want2[2*Size] = 10, 20, 30
	check(t, "second", second, want2)
}

// TestGenerations chains edits the way a patch lineage does, each from the
// previous result, and checks every generation against its own copy.
func TestGenerations(t *testing.T) {
	cur := From(seq(Size + 3))
	var gens []Vec[int]
	var wants [][]int
	want := seq(Size + 3)
	for g := 0; g < 8; g++ {
		gens, wants = append(gens, cur), append(wants, slices.Clone(want))
		e := cur.Edit()
		e.Grow(Size / 2)
		want = append(want, make([]int, Size/2)...)
		for _, i := range []int{g, Size + g, len(want) - 1 - g} {
			e.Set(i, 1000*g+i)
			want[i] = 1000*g + i
		}
		cur = e.Done()
	}
	check(t, "newest", cur, want)
	for g := range gens {
		check(t, "generation", gens[g], wants[g])
	}
}

// TestFromAliasesAndFlatCopies: From shares the array it slices; Flat
// returns a copy the caller may write.
func TestFromAliasesAndFlatCopies(t *testing.T) {
	flat := seq(2*Size + 1)
	v := From(flat)
	if &flat[Size] != &v.chunks[1][0] {
		t.Fatal("From copied its input")
	}
	out := v.Flat()
	out[0] = -1
	check(t, "round trip", v, seq(2*Size+1))
	check(t, "From(Flat)", From(v.Flat()), seq(2*Size+1))
	check(t, "empty", From([]int(nil)), nil)
}
