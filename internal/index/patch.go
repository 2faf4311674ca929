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
// removed/added antecedents, and the chunks of the class and attribute
// spines holding those rows (older generations keep serving from the
// originals). Everything else — the other chunks, the inner posting lists,
// requirement sets and the shared symbol space backing — is shared with
// the prior generation.
package index

import (
	"slices"

	"sqo/internal/constraint"
	"sqo/internal/symtab"
)

// Lineage is the mutation-side bookkeeping of one patched index lineage:
// per-class reference frequencies and reverse references, which home
// (re-)assignment needs, and each ordinal's current home, so a patch can
// move a posting without recomputing historic frequencies. It is mutated by
// Patch under the caller's serialization (the engine's swap lock) and never
// read while serving.
type Lineage struct {
	freq   []int     // per ClassID: live constraints referencing it
	refs   [][]int32 // per ClassID: live ordinals referencing it, unordered
	homeOf []int32   // per ordinal: home ClassID; -1 for parked/tombstoned
}

// NewLineage builds the mutation-side state for ix; O(catalog), paid once
// when an engine's first incremental update promotes its generation.
func NewLineage(ix *Index) *Lineage {
	lin := &Lineage{
		freq:   make([]int, ix.byClass.Len()),
		refs:   make([][]int32, ix.byClass.Len()),
		homeOf: ix.homes(),
	}
	for ord, ids := range ix.classIDs {
		for _, id := range ids {
			lin.freq[id]++
			lin.refs[id] = append(lin.refs[id], int32(ord))
		}
	}
	return lin
}

// grow extends the lineage to cover classes interned after construction
// and ordinals appended after them, which start unhomed.
func (lin *Lineage) grow(classes, ords int) {
	for len(lin.freq) < classes {
		lin.freq = append(lin.freq, 0)
		lin.refs = append(lin.refs, nil)
	}
	for len(lin.homeOf) < ords {
		lin.homeOf = append(lin.homeOf, -1)
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
	nx := &Index{
		all:          ix.all,
		syms:         syms,
		live:         ix.live - len(removed) + len(added),
		parked:       ix.parked,
		classIDs:     ix.classIDs,
		links:        ix.links,
		attrNonEmpty: ix.attrNonEmpty,
	}
	byClass, attrRows := ix.byClass.Edit(), ix.attrRows.Edit()
	byClass.Grow(syms.NumClasses() - byClass.Len())
	attrRows.Grow(syms.NumSigs() - attrRows.Len())
	lin.grow(syms.NumClasses(), ix.all.Len()+len(added))

	// touched tracks the classes whose reference frequency this delta
	// changes — the re-homing candidates' classes.
	var touchedBuf [16]symtab.ClassID
	touched := touchedBuf[:0]
	touch := func(id symtab.ClassID) {
		if !slices.Contains(touched, id) {
			touched = append(touched, id)
		}
	}

	// Removals: unpost from home, drop antecedent postings, release refs.
	for _, ord := range removed {
		if home := int(lin.homeOf[ord]); home >= 0 {
			byClass.Set(home, removeSorted(byClass.At(home), ord))
		} else {
			nx.parked = removeSorted(nx.parked, ord)
		}
		lin.homeOf[ord] = -1
		for _, id := range nx.classIDs[ord] {
			lin.freq[id]--
			lin.dropRef(id, ord)
			touch(id)
		}
		comp := syms.CompiledAt(int(ord))
		for _, aid := range comp.Ants {
			sig := int(syms.SigOrdinal(aid))
			old := attrRows.At(sig)
			if row := removePostings(old, ord); len(row) != len(old) {
				if len(row) == 0 {
					nx.attrNonEmpty--
				}
				attrRows.Set(sig, row)
			}
		}
	}

	// Additions: extend the ordinal space, post antecedents, count refs.
	for i, c := range added {
		ord := addedOrds[i]
		nx.all = nx.all.Append(c)
		ids := make([]symtab.ClassID, c.NumClasses())
		for k := range ids {
			id, ok := syms.ClassID(c.ClassAt(k))
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
		if len(ids) == 0 {
			nx.parked = insertSorted(nx.parked, ord)
		}
		comp := syms.CompiledAt(int(ord))
		for k, aid := range comp.Ants {
			sig := int(syms.SigOrdinal(aid))
			row := attrRows.At(sig)
			if len(row) == 0 {
				nx.attrNonEmpty++
			}
			// New ordinals exceed every posted one, so appending keeps
			// the (ordinal, position) order; the row is copied because
			// its backing may be shared with older generations.
			attrRows.Set(sig, appendPosting(row, attrPosting{ord: ord, pos: int32(k)}))
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
			if int32(home) == lin.homeOf[ord] {
				continue
			}
			if old := int(lin.homeOf[ord]); old >= 0 {
				byClass.Set(old, removeSorted(byClass.At(old), ord))
			}
			lin.homeOf[ord] = int32(home)
			byClass.Set(int(home), insertSorted(byClass.At(int(home)), ord))
		}
	}

	nx.byClass, nx.attrRows = byClass.Done(), attrRows.Done()
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
