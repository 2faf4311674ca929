package constraint

import "sync/atomic"

// Ordinals is a constraint ordinal space: the append-only numbering a
// catalog lineage gives its constraints, tombstones in place. A space
// restored from a snapshot starts with every slot nil and builds each
// constraint on first access, so a warm boot builds none up front:
// retrieval builds the few a query's classes select, and the whole set is
// built only on the paths that need it (the catalog view, the subsumption
// cache's attribute set, the first catalog update, a snapshot write).
//
// An Ordinals value is a view, like a slice header: Append returns a new
// view and never changes the slots an older view can see.
type Ordinals struct {
	slots []*Constraint
	built []atomic.Pointer[Constraint] // lazily built slots, shared by every view
	build func(ord int) *Constraint
}

// OrdinalsOf wraps fully built constraints as an ordinal space (ordinal i =
// position i). The slice is aliased.
func OrdinalsOf(cs []*Constraint) Ordinals { return Ordinals{slots: cs} }

// LazyOrdinals returns an ordinal space of n slots, each built by build(ord)
// on first access. build must be safe to call from any goroutine and must
// return the same constraint content for the same ordinal: readers racing
// on a fresh slot may each build it, and the first build published is the
// one every reader gets.
func LazyOrdinals(n int, build func(ord int) *Constraint) Ordinals {
	return Ordinals{slots: make([]*Constraint, n), built: make([]atomic.Pointer[Constraint], n), build: build}
}

// Len returns the number of ordinals, tombstones included.
func (o Ordinals) Len() int { return len(o.slots) }

// At returns the constraint at ordinal i, building it if needed.
func (o Ordinals) At(i int) *Constraint {
	if c := o.slots[i]; c != nil {
		return c
	}
	if c := o.built[i].Load(); c != nil {
		return c
	}
	if c := o.build(i); o.built[i].CompareAndSwap(nil, c) {
		return c
	}
	return o.built[i].Load()
}

// Append returns the space extended by cs at the next ordinals.
func (o Ordinals) Append(cs ...*Constraint) Ordinals {
	o.slots = append(o.slots, cs...)
	return o
}

// Slice returns every ordinal's constraint in a fresh slice, building
// whatever has not been built yet.
func (o Ordinals) Slice() []*Constraint {
	out := make([]*Constraint, len(o.slots))
	for i := range out {
		out[i] = o.At(i)
	}
	return out
}
