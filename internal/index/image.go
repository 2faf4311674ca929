// Snapshot support: exporting an index to a flat, serializable image and
// rebuilding an Index from one in O(arrays).
//
// Everything an Index holds is already map-free (posting lists and
// requirement sets, all dense arrays), so the image is mostly a CSR
// flattening of the nested slices. Home assignments are derived from the
// class postings when written, and ignored when read. The per-ordinal link
// sets are not serialized here: the snapshot stores them with the
// constraints and hands them back at restore. Tombstoned ordinals get empty classIDs rows in the
// image even when the source index still carries their stale rows (a
// patched index never clears them), which is the invariant NewLineage
// depends on when a restored generation takes its first delta.
package index

import (
	"sqo/internal/chunked"
	"sqo/internal/constraint"
	"sqo/internal/symtab"
)

// Image is the serializable form of an Index. All nested slices are
// flattened CSR-style: row i of a structure spans the flat array between
// offsets[i] and offsets[i+1]. Treat an Image as frozen once produced.
type Image struct {
	Live int

	ClassOffsets []int32 // len NumClasses+1: byClass row boundaries
	ClassOrds    []int32
	Parked       []int32
	HomeOf       []int32 // per ordinal: home ClassID, -1 if none; not read back

	CIDOffsets []int32 // len nOrds+1: classIDs row boundaries
	CIDs       []symtab.ClassID

	AttrOffsets []int32 // len NumSigs+1: attrRows row boundaries
	AttrOrds    []int32
	AttrPoss    []int32

	AttrNonEmpty int
	MaxPosting   int
}

// Image exports the index for snapshot writing. dead marks tombstoned
// ordinals (nil = all live); their classIDs rows are emitted empty so a
// restored index satisfies NewLineage's live-rows-only invariant.
func (ix *Index) Image(dead []bool) *Image {
	img := &Image{
		Live:         ix.live,
		Parked:       ix.parked,
		HomeOf:       ix.homes(),
		AttrNonEmpty: ix.attrNonEmpty,
		MaxPosting:   ix.maxPosting,
	}

	byClass := ix.byClass.Flat()
	img.ClassOffsets = make([]int32, len(byClass)+1)
	total := 0
	for _, row := range byClass {
		total += len(row)
	}
	img.ClassOrds = make([]int32, 0, total)
	for i, row := range byClass {
		img.ClassOrds = append(img.ClassOrds, row...)
		img.ClassOffsets[i+1] = int32(len(img.ClassOrds))
	}

	img.CIDOffsets = make([]int32, len(ix.classIDs)+1)
	total = 0
	for ord, row := range ix.classIDs {
		if dead == nil || !dead[ord] {
			total += len(row)
		}
	}
	img.CIDs = make([]symtab.ClassID, 0, total)
	for ord, row := range ix.classIDs {
		if dead == nil || !dead[ord] {
			img.CIDs = append(img.CIDs, row...)
		}
		img.CIDOffsets[ord+1] = int32(len(img.CIDs))
	}

	attrRows := ix.attrRows.Flat()
	img.AttrOffsets = make([]int32, len(attrRows)+1)
	total = 0
	for _, row := range attrRows {
		total += len(row)
	}
	img.AttrOrds = make([]int32, 0, total)
	img.AttrPoss = make([]int32, 0, total)
	for i, row := range attrRows {
		for _, p := range row {
			img.AttrOrds = append(img.AttrOrds, p.ord)
			img.AttrPoss = append(img.AttrPoss, p.pos)
		}
		img.AttrOffsets[i+1] = int32(len(img.AttrOrds))
	}
	return img
}

// FromImage rebuilds an Index over the restored ordinal space, its
// per-ordinal link sets and symbol table. Rows are sliced out of the flat
// arrays without copying, and no constraint is touched, so a lazily
// restored ordinal space stays unbuilt until serving asks for it. ok is
// false on structurally inconsistent offsets or postings; semantic
// integrity is vouched for by the snapshot layer's checksums.
func FromImage(img *Image, all constraint.Ordinals, links [][]string, syms *symtab.Table) (*Index, bool) {
	nOrds := all.Len()
	if len(img.HomeOf) != nOrds || len(links) != nOrds || len(img.CIDOffsets) != nOrds+1 ||
		len(img.ClassOffsets) != syms.NumClasses()+1 || len(img.AttrOffsets) != syms.NumSigs()+1 ||
		len(img.AttrPoss) != len(img.AttrOrds) {
		return nil, false
	}
	ix := &Index{
		all:          all,
		syms:         syms,
		live:         img.Live,
		parked:       img.Parked,
		links:        links,
		attrNonEmpty: img.AttrNonEmpty,
		maxPosting:   img.MaxPosting,
	}

	byClass := make([][]int32, len(img.ClassOffsets)-1)
	if !sliceRows(img.ClassOffsets, len(img.ClassOrds), func(i int, a, b int32) {
		byClass[i] = img.ClassOrds[a:b:b]
	}) {
		return nil, false
	}
	ix.byClass = chunked.From(byClass)

	ix.classIDs = make([][]symtab.ClassID, nOrds)
	if !sliceRows(img.CIDOffsets, len(img.CIDs), func(i int, a, b int32) {
		ix.classIDs[i] = img.CIDs[a:b:b]
	}) {
		return nil, false
	}

	// Attribute postings: one arena, sliced into rows.
	arena := make([]attrPosting, len(img.AttrOrds))
	for k, ord := range img.AttrOrds {
		pos := img.AttrPoss[k]
		if ord < 0 || int(ord) >= nOrds || pos < 0 || int(pos) >= len(syms.CompiledAt(int(ord)).Ants) {
			return nil, false
		}
		arena[k] = attrPosting{ord: ord, pos: pos}
	}
	attrRows := make([][]attrPosting, len(img.AttrOffsets)-1)
	if !sliceRows(img.AttrOffsets, len(arena), func(i int, a, b int32) {
		attrRows[i] = arena[a:b:b]
	}) {
		return nil, false
	}
	ix.attrRows = chunked.From(attrRows)
	return ix, true
}

// sliceRows walks a CSR offset spine, calling fn(i, start, end) per row;
// it reports false when the offsets are not monotonic within [0, flatLen].
func sliceRows(offsets []int32, flatLen int, fn func(i int, a, b int32)) bool {
	for i := 0; i+1 < len(offsets); i++ {
		a, b := offsets[i], offsets[i+1]
		if a < 0 || b < a || int(b) > flatLen {
			return false
		}
		fn(i, a, b)
	}
	return true
}
