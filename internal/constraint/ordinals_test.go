package constraint

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sqo/internal/predicate"
	"sqo/internal/value"
)

func numbered(i int) *Constraint {
	return New(fmt.Sprintf("c%d", i), nil, nil,
		predicate.Sel("t", "a", predicate.GE, value.Int(int64(i))))
}

// TestLazyOrdinalsSharedBuild races readers over a lazily restored space:
// nothing is built before it is asked for, every reader of an ordinal gets
// the same constraint, and once published a slot is never built again.
func TestLazyOrdinalsSharedBuild(t *testing.T) {
	const n = 64
	var builds [n]atomic.Int32
	o := LazyOrdinals(n, func(ord int) *Constraint {
		builds[ord].Add(1)
		return numbered(ord)
	})
	if o.Len() != n {
		t.Fatalf("Len = %d, want %d", o.Len(), n)
	}
	for ord := range n {
		if builds[ord].Load() != 0 {
			t.Fatalf("ordinal %d built before it was asked for", ord)
		}
	}

	got := make([][]*Constraint, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]*Constraint, n)
			for i := range n {
				ord := (i + g*7) % n
				got[g][ord] = o.At(ord)
			}
		}()
	}
	wg.Wait()
	var after [n]int32
	for ord := range n {
		if after[ord] = builds[ord].Load(); after[ord] < 1 {
			t.Fatalf("ordinal %d read but never built", ord)
		}
		for g := range got {
			if got[g][ord] != got[0][ord] {
				t.Fatalf("ordinal %d: readers saw different constraints", ord)
			}
		}
		if got[0][ord].ID != fmt.Sprintf("c%d", ord) {
			t.Fatalf("ordinal %d holds %s", ord, got[0][ord].ID)
		}
	}
	for ord := range n {
		if o.At(ord) != got[0][ord] || builds[ord].Load() != after[ord] {
			t.Fatalf("ordinal %d rebuilt after it was published", ord)
		}
	}
}

// TestOrdinalsAppendKeepsViews: an appended view extends a lazy space
// without building it, and older views keep their length.
func TestOrdinalsAppendKeepsViews(t *testing.T) {
	built := 0
	base := LazyOrdinals(3, func(ord int) *Constraint {
		built++
		return numbered(ord)
	})
	next := base.Append(numbered(3), numbered(4))
	if base.Len() != 3 || next.Len() != 5 {
		t.Fatalf("lengths %d/%d, want 3/5", base.Len(), next.Len())
	}
	if next.At(4).ID != "c4" || built != 0 {
		t.Fatalf("appended ordinal: %s, %d lazy builds", next.At(4).ID, built)
	}
	if next.At(1) != base.At(1) || built != 1 {
		t.Fatalf("shared lazy ordinal built %d times or differs between views", built)
	}
	all := next.Slice()
	if len(all) != 5 || built != 3 {
		t.Fatalf("Slice: %d constraints, %d lazy builds; want 5, 3", len(all), built)
	}
	for i, c := range all {
		if c.ID != fmt.Sprintf("c%d", i) {
			t.Fatalf("Slice()[%d] = %s", i, c.ID)
		}
	}
}
