package symtab

import (
	"cmp"
	"slices"

	"sqo/internal/chunked"
	"sqo/internal/constraint"
)

// Patch grows the symbol space of a catalog generation into the next one:
// the constraints of added are compiled at fresh ordinals (appended after
// every ordinal the receiver knows), interning any new class, attribute,
// signature or predicate symbols at fresh dense IDs. Every ID the receiver
// assigned stays valid and unchanged in the returned table — ID spaces are
// append-only across a lineage — so per-ID state held elsewhere (catalog
// ordinals in cached results, posting lists, translation arrays) survives
// the patch untouched.
//
// Removals need no symbol work at all: a removed constraint's ordinal,
// predicates and classes simply become tombstones — still resolvable through
// the lineage's base and overlay (an old generation may still be serving
// them), no longer referenced by the new generation's retrieval structures.
// A re-added symbol therefore reuses its tombstoned ID instead of minting a
// new one.
//
// The first Patch of a lineage starts its overlay empty: the base keeps
// resolving every symbol it holds, and only the signature-bucket membership
// is built (O(predicates), once). Every patch then costs O(|added| · bucket)
// symbol work, and its adjacency edit copies only the chunks holding the
// rows it writes. The receiver is never mutated and keeps serving
// concurrently; Patch calls within a lineage must be serialized by the
// caller (the engine holds its swap lock).
//
// Patch returns the new table and the ordinals assigned to added, parallel
// to it. With no additions the receiver itself is returned unchanged.
func (t *Table) Patch(added []*constraint.Constraint) (*Table, []int32) {
	if len(added) == 0 {
		return t, nil
	}
	nt := *t
	if nt.over == nil {
		nt.over = &overlay{sigMembers: make(map[int32][]PredID, t.nSigs)}
		// PredIDs ascend, so appending in ID order keeps buckets sorted.
		for id, sig := range t.predSig {
			nt.over.sigMembers[sig] = append(nt.over.sigMembers[sig], PredID(id))
		}
	}

	oldPreds := len(nt.preds)
	ords := make([]int32, len(added))
	for i, c := range added {
		ords[i] = nt.add(c)
	}
	nt.patchAdjacency(oldPreds)
	return &nt, ords
}

// patchAdjacency extends the catalog-level implication adjacency with the
// predicates interned after oldPreds. It writes only the new predicates'
// rows and the rows gaining an edge; the edits copy the chunks holding
// them, and every other chunk is shared with the prior generations.
func (t *Table) patchAdjacency(oldPreds int) {
	newPreds := len(t.preds)
	if newPreds == oldPreds {
		return
	}
	// A fresh rule adds about ten edges; the buffers keep them off the heap.
	var fwdBuf, revBuf [32]edge
	fwd, rev := fwdBuf[:0], revBuf[:0]
	for id := oldPreds; id < newPreds; id++ {
		pid := PredID(id)
		sig := t.predSig[id]
		members := t.over.sigMembers[sig]
		p := t.preds[id]
		for _, m := range members {
			pm := t.preds[m]
			if p.Implies(pm) {
				fwd = append(fwd, edge{pid, m})
				rev = append(rev, edge{m, pid})
			}
			if pm.Implies(p) {
				rev = append(rev, edge{pid, m})
				fwd = append(fwd, edge{m, pid})
			}
		}
		t.over.sigMembers[sig] = append(members, pid)
	}
	t.fwd = addEdges(t.fwd, newPreds, fwd)
	t.rev = addEdges(t.rev, newPreds, rev)
}

// edge is one implication edge a patch adds: id joins row's list.
type edge struct{ row, id PredID }

// addEdges returns adj grown to n rows, with each edge's id appended to its
// row. Every row it writes is copied into one new array, so a row shared
// with a prior generation is never written in place. Rows stay ascending:
// the stable sort keeps each row's edges in the order they were found, in
// which every id exceeds the row's existing members and the ids before it.
func addEdges(adj chunked.Vec[[]PredID], n int, edges []edge) chunked.Vec[[]PredID] {
	e := adj.Edit()
	e.Grow(n - e.Len())
	slices.SortStableFunc(edges, func(a, b edge) int { return cmp.Compare(a.row, b.row) })
	size := len(edges)
	for i, ed := range edges {
		if i == 0 || ed.row != edges[i-1].row {
			size += len(e.At(int(ed.row)))
		}
	}
	rows := make([]PredID, 0, size)
	for i := 0; i < len(edges); {
		row, start := edges[i].row, len(rows)
		rows = append(rows, e.At(int(row))...)
		for ; i < len(edges) && edges[i].row == row; i++ {
			rows = append(rows, edges[i].id)
		}
		e.Set(int(row), rows[start:len(rows):len(rows)])
	}
	return e.Done()
}
