// Index patching: deriving the next catalog generation's index from the
// current one in work proportional to the delta, by structural sharing.
//
// The ordinal space is append-only across a patch lineage: a removed
// constraint's ordinal is tombstoned (no posting list references it, its
// slot in all/classIDs/links stays), an added constraint gets the next
// fresh ordinal. Because posting lists store ordinals ascending and
// Relevant sorts its candidates, the retrieval order of a patched index is
// exactly the catalog order a from-scratch build over the same live set
// would produce: survivors keep their relative order, additions append.
//
// Only the structures the delta touches are rebuilt by copy: the posting
// lists losing or gaining a member, the attribute-posting rows of the
// removed/added antecedents, and the top-level spines (slice-header arrays),
// which cannot be mutated in place while older generations are serving from
// them. Everything else — the inner posting lists, requirement sets and the
// shared symbol space backing — is shared with the prior generation.
package index

import (
	"slices"

	"sqo/internal/constraint"
	"sqo/internal/symtab"
)

// Lineage is the mutation-side bookkeeping of one patched index lineage:
// per-class reference frequencies and reverse references, which home
// (re-)assignment needs. It is mutated by Patch under the caller's
// serialization (the engine's swap lock) and never read while serving.
type Lineage struct {
	freq []int     // per ClassID: live constraints referencing it
	refs [][]int32 // per ClassID: live ordinals referencing it, unordered
}

// NewLineage builds the mutation-side state for ix; O(catalog), paid once
// when an engine's first incremental update promotes its generation.
func NewLineage(ix *Index) *Lineage {
	lin := &Lineage{
		freq: make([]int, len(ix.byClass)),
		refs: make([][]int32, len(ix.byClass)),
	}
	for ord, ids := range ix.classIDs {
		for _, id := range ids {
			lin.freq[id]++
			lin.refs[id] = append(lin.refs[id], int32(ord))
		}
	}
	return lin
}

// grow extends the lineage to cover classes interned after construction.
func (lin *Lineage) grow(classes int) {
	for len(lin.freq) < classes {
		lin.freq = append(lin.freq, 0)
		lin.refs = append(lin.refs, nil)
	}
}

// dropRef removes ord from refs[id] (order is irrelevant; swap-delete).
func (lin *Lineage) dropRef(id symtab.ClassID, ord int32) {
	list := lin.refs[id]
	for i, v := range list {
		if v == ord {
			list[i] = list[len(list)-1]
			lin.refs[id] = list[:len(list)-1]
			return
		}
	}
}

// Patch derives the index of the next generation: removed lists the
// tombstoned ordinals, added the new constraints (appended at fresh
// ordinals, in order), syms the patched symbol space covering them. The
// receiver is never mutated and keeps serving concurrently; lin is updated
// in place. Patch calls within a lineage must be serialized by the caller.
//
// Home assignment stays byte-identical to a from-scratch build: the delta
// changes the reference frequency only of the classes the removed/added
// constraints mention, and only constraints referencing such a class can
// see their rarest-class choice flip, so exactly those candidates are
// re-homed under the updated frequencies (same tie-break: first class in
// sorted order wins).
func (ix *Index) Patch(lin *Lineage, syms *symtab.Table, removed []int32, added []*constraint.Constraint, addedOrds []int32) *Index {
	nOrds := ix.all.Len() + len(added)
	nx := &Index{
		all:          ix.all,
		syms:         syms,
		live:         ix.live - len(removed) + len(added),
		byClass:      make([][]int32, syms.NumClasses()),
		parked:       ix.parked,
		homeOf:       make([]int32, nOrds),
		classIDs:     ix.classIDs,
		links:        ix.links,
		attrRows:     make([][]attrPosting, syms.NumSigs()),
		attrNonEmpty: ix.attrNonEmpty,
	}
	copy(nx.byClass, ix.byClass)
	copy(nx.homeOf, ix.homeOf)
	copy(nx.attrRows, ix.attrRows)
	lin.grow(syms.NumClasses())

	// touched tracks the classes whose reference frequency this delta
	// changes — the re-homing candidates' classes.
	var touched []symtab.ClassID
	touch := func(id symtab.ClassID) {
		if !slices.Contains(touched, id) {
			touched = append(touched, id)
		}
	}

	// Removals: unpost from home, drop antecedent postings, release refs.
	for _, ord := range removed {
		if home := nx.homeOf[ord]; home >= 0 {
			nx.byClass[home] = removeSorted(nx.byClass[home], ord)
		} else {
			nx.parked = removeSorted(nx.parked, ord)
		}
		nx.homeOf[ord] = -1
		for _, id := range nx.classIDs[ord] {
			lin.freq[id]--
			lin.dropRef(id, ord)
			touch(id)
		}
		comp := syms.CompiledAt(int(ord))
		for _, aid := range comp.Ants {
			sig := syms.SigOrdinal(aid)
			row := removePostings(nx.attrRows[sig], ord)
			if len(row) == 0 && len(nx.attrRows[sig]) > 0 {
				nx.attrNonEmpty--
			}
			nx.attrRows[sig] = row
		}
	}

	// Additions: extend the ordinal space, post antecedents, count refs.
	for i, c := range added {
		ord := addedOrds[i]
		nx.all = nx.all.Append(c)
		cls := c.Classes()
		ids := make([]symtab.ClassID, len(cls))
		for k, cl := range cls {
			id, ok := syms.ClassID(cl)
			if !ok {
				panic("index: symbol space does not cover constraint " + c.ID)
			}
			ids[k] = id
			lin.freq[id]++
			lin.refs[id] = append(lin.refs[id], ord)
			touch(id)
		}
		nx.classIDs = append(nx.classIDs, ids)
		nx.links = append(nx.links, c.Links)
		nx.homeOf[ord] = -1 // homed below with every other candidate
		if len(ids) == 0 {
			nx.parked = insertSorted(nx.parked, ord)
		}
		comp := syms.CompiledAt(int(ord))
		for k, aid := range comp.Ants {
			sig := syms.SigOrdinal(aid)
			if len(nx.attrRows[sig]) == 0 {
				nx.attrNonEmpty++
			}
			// New ordinals exceed every posted one, so appending keeps
			// the (ordinal, position) order; the row is copied because
			// its backing may be shared with older generations.
			nx.attrRows[sig] = appendPosting(nx.attrRows[sig], attrPosting{ord: ord, pos: int32(k)})
		}
	}

	// Re-home every live constraint referencing a frequency-changed class;
	// untouched constraints cannot have seen their rarest-class choice
	// move. Candidates include the fresh ordinals (homed for the first
	// time here).
	for _, id := range touched {
		for _, ord := range lin.refs[id] {
			ids := nx.classIDs[ord]
			home := ids[0]
			for _, cid := range ids[1:] {
				if lin.freq[cid] < lin.freq[home] {
					home = cid
				}
			}
			if int32(home) == nx.homeOf[ord] {
				continue
			}
			if old := nx.homeOf[ord]; old >= 0 {
				nx.byClass[old] = removeSorted(nx.byClass[old], ord)
			}
			nx.homeOf[ord] = int32(home)
			nx.byClass[home] = insertSorted(nx.byClass[home], ord)
		}
	}

	nx.maxPosting = nx.computeMaxPosting()
	return nx
}

// removeSorted returns list without v, preserving order. The result is a
// fresh copy; the input (shared with older generations) is untouched.
func removeSorted(list []int32, v int32) []int32 {
	i, ok := slices.BinarySearch(list, v)
	if !ok {
		return list
	}
	out := make([]int32, 0, len(list)-1)
	out = append(out, list[:i]...)
	return append(out, list[i+1:]...)
}

// insertSorted returns list with v inserted in order, as a fresh copy.
func insertSorted(list []int32, v int32) []int32 {
	i, ok := slices.BinarySearch(list, v)
	if ok {
		return list
	}
	out := make([]int32, 0, len(list)+1)
	out = append(out, list[:i]...)
	out = append(out, v)
	return append(out, list[i:]...)
}

// removePostings returns row without the postings of ord, as a fresh copy
// (or the shared row itself when ord posted nothing on it).
func removePostings(row []attrPosting, ord int32) []attrPosting {
	n := 0
	for _, p := range row {
		if p.ord == ord {
			n++
		}
	}
	if n == 0 {
		return row
	}
	out := make([]attrPosting, 0, len(row)-n)
	for _, p := range row {
		if p.ord != ord {
			out = append(out, p)
		}
	}
	return out
}

// appendPosting appends p to a fresh copy of row (whose backing may be
// shared with an older generation).
func appendPosting(row []attrPosting, p attrPosting) []attrPosting {
	return append(append(make([]attrPosting, 0, len(row)+1), row...), p)
}
