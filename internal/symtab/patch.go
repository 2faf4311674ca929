package symtab

import (
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
// symbol work plus one copy of the implication adjacency spines. The
// receiver is never mutated and keeps serving concurrently; Patch calls
// within a lineage must be serialized by the caller (the engine holds its
// swap lock).
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
// predicates interned after oldPreds. Only the spines and the rows of
// predicates gaining an edge are copied; every untouched row is shared with
// the prior generations. Rows stay ascending: a new predicate's ID exceeds
// every member of its bucket, so appending preserves order.
func (t *Table) patchAdjacency(oldPreds int) {
	newPreds := len(t.preds)
	if newPreds == oldPreds {
		return
	}
	fwd := make([][]PredID, newPreds)
	copy(fwd, t.fwd)
	rev := make([][]PredID, newPreds)
	copy(rev, t.rev)
	// ownedFwd/ownedRev mark pre-existing rows already copied during this
	// patch, so a second edge into the same row appends in place instead
	// of re-copying the (shared) original.
	ownedFwd := make(map[PredID]bool)
	ownedRev := make(map[PredID]bool)
	for id := oldPreds; id < newPreds; id++ {
		pid := PredID(id)
		sig := t.predSig[id]
		members := t.over.sigMembers[sig]
		p := t.preds[id]
		for _, m := range members {
			pm := t.preds[m]
			if p.Implies(pm) {
				fwd[pid] = append(fwd[pid], m)
				if int(m) < oldPreds && !ownedRev[m] {
					rev[m] = append(append([]PredID(nil), rev[m]...), pid)
					ownedRev[m] = true
				} else {
					rev[m] = append(rev[m], pid)
				}
			}
			if pm.Implies(p) {
				rev[pid] = append(rev[pid], m)
				if int(m) < oldPreds && !ownedFwd[m] {
					fwd[m] = append(append([]PredID(nil), fwd[m]...), pid)
					ownedFwd[m] = true
				} else {
					fwd[m] = append(fwd[m], pid)
				}
			}
		}
		t.over.sigMembers[sig] = append(members, pid)
	}
	t.fwd, t.rev = fwd, rev
}
