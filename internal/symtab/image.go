// Snapshot support: exporting a symbol space to a serializable image and
// adopting one as the base of a new lineage without recompiling anything.
//
// A snapshot stores the base form itself: the plain backing arrays plus the
// frozen open-addressing tables (package frozen) over them, which Image
// rebuilds at exact size on every write. FromImage wraps those arrays and
// slot arrays in a Table that resolves names exactly as a compiled one does
// — no map is rebuilt, no string re-hashed into a Go map, no implication
// re-derived — so a warm boot skips the predicate interning and the
// O(Σ bucket²) implication inference that dominate a cold Compile.
package symtab

import (
	"sqo/internal/chunked"
	"sqo/internal/frozen"
	"sqo/internal/predicate"
)

// sep separates composite key fields in frozen hashing.
const sep = 0xff

func hashClass(name string) uint64 { return frozen.HashString(name) }

func hashAttr(k attrKey) uint64 {
	return frozen.AddString(frozen.AddByte(frozen.AddString(frozen.Seed(), k.class), sep), k.attr)
}

func hashSig(k sigKey) uint64 {
	h := frozen.Seed()
	if k.join {
		h = frozen.AddByte(h, 1)
	} else {
		h = frozen.AddByte(h, 0)
	}
	h = frozen.AddString(h, k.left.Class)
	h = frozen.AddByte(h, sep)
	h = frozen.AddString(h, k.left.Attr)
	h = frozen.AddByte(h, sep)
	h = frozen.AddString(h, k.right.Class)
	h = frozen.AddByte(h, sep)
	return frozen.AddString(h, k.right.Attr)
}

func hashPred(p predicate.Predicate) uint64 { return frozen.HashString(p.Key()) }

// Image is the serializable form of a Table: the plain backing arrays plus
// the frozen lookup-slot arrays. Compiled constraint rows are normalized to
// one flat antecedent array with an offset spine (a patched table's rows can
// straddle several backings). All slices alias either the table or freshly
// built tables; treat an Image as frozen once produced.
type Image struct {
	ClassNames []string
	ClassSlots []int32

	AttrClasses []string // parallel to AttrNames: interned (class, attr) pairs
	AttrNames   []string
	AttrSlots   []int32

	Preds     []predicate.Predicate // pool order
	PoolSlots []int32

	PredSig  []int32
	NSigs    int
	SigRep   []PredID
	SigSlots []int32

	Fwd, Rev [][]PredID

	Cons       []PredID // per ordinal: consequent PredID
	AntsFlat   []PredID // concatenated antecedent rows, ordinal order
	AntOffsets []int32  // len(Cons)+1: row boundaries in AntsFlat

	OrdKeys  []string // per ordinal: constraint key; "" = tombstone
	OrdSlots []int32
}

// Image exports the table for snapshot writing, building the frozen lookup
// tables as it goes. ordKeys must be parallel to the table's ordinal space,
// holding each live constraint's canonical key and "" for tombstoned
// ordinals (live keys are unique within a generation by the delta layer's
// invariant). Image works on compiled, patched and restored tables alike.
func (t *Table) Image(ordKeys []string) *Image {
	img := &Image{
		ClassNames: t.classNames,
		PredSig:    t.predSig,
		NSigs:      t.nSigs,
		Fwd:        t.fwd.Flat(),
		Rev:        t.rev.Flat(),
		Preds:      append([]predicate.Predicate(nil), t.preds...), // fresh: the writer appends to it
		OrdKeys:    ordKeys,
	}
	img.PoolSlots = slots(len(t.preds), func(id int32) uint64 { return hashPred(t.preds[id]) })

	img.AttrClasses = make([]string, len(t.attrKeys))
	img.AttrNames = make([]string, len(t.attrKeys))
	for i, k := range t.attrKeys {
		img.AttrClasses[i], img.AttrNames[i] = k.class, k.attr
	}

	img.ClassSlots = slots(len(t.classNames), func(id int32) uint64 { return hashClass(t.classNames[id]) })
	img.AttrSlots = slots(len(t.attrKeys), func(id int32) uint64 { return hashAttr(t.attrKeys[id]) })

	img.SigRep = make([]PredID, t.nSigs)
	for i := range img.SigRep {
		img.SigRep[i] = None
	}
	for id, sig := range t.predSig {
		if img.SigRep[sig] == None {
			img.SigRep[sig] = PredID(id)
		}
	}
	sigs := frozen.New(t.nSigs)
	for sig, rep := range img.SigRep {
		if rep != None {
			sigs.Insert(hashSig(sigOf(t.preds[rep])), int32(sig))
		}
	}
	img.SigSlots = sigs.Slots()

	img.Cons = make([]PredID, len(t.compiled))
	img.AntOffsets = make([]int32, len(t.compiled)+1)
	total := 0
	for _, c := range t.compiled {
		total += len(c.Ants)
	}
	img.AntsFlat = make([]PredID, 0, total)
	for i, c := range t.compiled {
		img.Cons[i] = c.Cons
		img.AntsFlat = append(img.AntsFlat, c.Ants...)
		img.AntOffsets[i+1] = int32(len(img.AntsFlat))
	}

	live := 0
	for _, k := range ordKeys {
		if k != "" {
			live++
		}
	}
	ords := frozen.New(live)
	for ord, k := range ordKeys {
		if k != "" {
			ords.Insert(frozen.HashString(k), int32(ord))
		}
	}
	img.OrdSlots = ords.Slots()
	return img
}

// slots builds the exact-size frozen table over IDs 0..n-1.
func slots(n int, hashOf func(id int32) uint64) []int32 {
	tab := frozen.New(n)
	for id := int32(0); id < int32(n); id++ {
		tab.Insert(hashOf(id), id)
	}
	return tab.Slots()
}

// FromImage rebuilds a Table from an image in O(arrays): backing slices are
// adopted, compiled rows are re-sliced from the flat antecedent array, and
// every symbol lookup is answered by the image's frozen tables. ok is false
// when a frozen slot array is structurally invalid for its entry count —
// the caller treats that as snapshot corruption. No semantic validation
// happens here; the snapshot layer's checksums vouch for the content.
func FromImage(img *Image) (*Table, bool) {
	classes, ok1 := frozen.FromSlots(img.ClassSlots, len(img.ClassNames))
	attrs, ok2 := frozen.FromSlots(img.AttrSlots, len(img.AttrClasses))
	sigs, ok3 := frozen.FromSlots(img.SigSlots, img.NSigs)
	ords, ok4 := frozen.FromSlots(img.OrdSlots, len(img.OrdKeys))
	preds, ok5 := frozen.FromSlots(img.PoolSlots, len(img.Preds))
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
		return nil, false
	}
	if len(img.AttrNames) != len(img.AttrClasses) || len(img.SigRep) != img.NSigs ||
		len(img.PredSig) != len(img.Preds) || len(img.AntOffsets) != len(img.Cons)+1 ||
		len(img.OrdKeys) != len(img.Cons) {
		return nil, false
	}
	t := &Table{
		classNames: img.ClassNames,
		preds:      img.Preds,
		predSig:    img.PredSig,
		nSigs:      img.NSigs,
		fwd:        chunked.From(img.Fwd),
		rev:        chunked.From(img.Rev),
		base: &base{
			classes: classes,
			attrs:   attrs,
			sigs:    sigs,
			preds:   preds,
			ords:    ords,
			sigRep:  img.SigRep,
			ordKeys: img.OrdKeys,
		},
	}
	t.attrKeys = make([]attrKey, len(img.AttrClasses))
	for i := range t.attrKeys {
		t.attrKeys[i] = attrKey{class: img.AttrClasses[i], attr: img.AttrNames[i]}
	}
	t.antsFlat = img.AntsFlat
	t.compiled = make([]Compiled, len(img.Cons))
	for i := range t.compiled {
		a, b := img.AntOffsets[i], img.AntOffsets[i+1]
		if a < 0 || b < a || int(b) > len(img.AntsFlat) {
			return nil, false
		}
		t.compiled[i] = Compiled{Cons: img.Cons[i], Ants: img.AntsFlat[a:b:b]}
	}
	return t, true
}
