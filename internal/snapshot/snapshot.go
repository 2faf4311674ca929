// Package snapshot persists a compiled catalog generation — the interned
// symbol space, the constraint ordinal space with its tombstones, and the
// retrieval index — as one versioned, checksummed file, and records the
// deltas applied after a snapshot in an append-only journal. Together they
// give a restarted node a warm boot: load the snapshot in O(read), replay
// the journal tail, serve — instead of re-validating and re-compiling the
// whole catalog (symbol interning and the O(Σ bucket²) implication
// inference dominate a cold build).
//
// The decisive design choice is that the file stores *lookup structure*,
// not just data: the frozen open-addressing tables built at save time
// (package frozen, symtab.Image) are serialized verbatim, so a restore
// performs zero map insertions. Everything else follows from that — flat
// struct-of-arrays layouts stored little-endian at element-aligned offsets
// and viewed in place on little-endian hosts (bulk-converted elsewhere), one
// shared string arena re-sliced zero-copy, per-section CRCs verified in
// parallel.
// The byte layout is normative in docs/SNAPSHOT_FORMAT.md; keep the two in
// lockstep and bump FormatVersion on any incompatible change.
//
// Corruption policy: a snapshot that fails any structural or checksum test
// decodes to an error, never to a partial model — callers fall back to a
// cold build. A journal with a torn tail replays its valid prefix; any
// deeper damage (bad header, mid-file corruption) refuses replay the same
// way.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"

	"sqo/internal/constraint"
	"sqo/internal/index"
	"sqo/internal/predicate"
	"sqo/internal/symtab"
	"sqo/internal/value"
)

// Magic opens every snapshot file.
const Magic = "SQOSNAP1"

// FormatVersion is the snapshot layout version this build reads and
// writes. There is no cross-version migration: a version mismatch refuses
// the warm boot and the node cold-builds (then writes a fresh snapshot).
const FormatVersion = 1

// Decode failure modes. Callers distinguish them for diagnostics only —
// every one of them means "cold-build instead".
var (
	ErrBadMagic = errors.New("snapshot: not a snapshot file")
	ErrVersion  = errors.New("snapshot: unsupported format version")
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	ErrCorrupt  = errors.New("snapshot: structurally invalid")
)

// Section ids of format version 1.
const (
	secStrings     = 1
	secPreds       = 2
	secSymtab      = 3
	secConstraints = 4
	secIndex       = 5
)

const (
	headerSize   = 48
	secEntrySize = 24
	maxSections  = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Model is the in-memory form of a snapshot: exactly the generation-scoped
// state an engine needs to serve. All and Dead span the full ordinal space
// (tombstones in place); Syms and Index are the restored (or to-be-saved)
// compiled structures over it. A decoded model's constraints are built on
// first access (see decodeConstraints).
type Model struct {
	SchemaHash uint64
	Seq        uint64

	All  constraint.Ordinals
	Dead []bool

	Syms  *symtab.Table
	Index *index.Index
}

// Info is the identity of a snapshot file, readable without decoding it.
type Info struct {
	ID         uint64
	Seq        uint64
	SchemaHash uint64
	Version    uint16
}

// Encode serializes the model, returning the file bytes and the snapshot
// id (a digest of the section checksums — two encodes of the same state
// produce the same id).
func Encode(m *Model) ([]byte, uint64, error) {
	if len(m.Dead) != m.All.Len() {
		return nil, 0, fmt.Errorf("snapshot: dead mask length %d != ordinal space %d", len(m.Dead), m.All.Len())
	}
	all := m.All.Slice()
	ordKeys := make([]string, len(all))
	for i, c := range all {
		if !m.Dead[i] {
			ordKeys[i] = c.Key()
		}
	}
	symImg := m.Syms.Image(ordKeys)
	idxImg := m.Index.Image(m.Dead)

	st := newStrTable()

	// The combined predicate table: pool predicates at their PredIDs, then
	// any constraint-held predicate value not structurally identical to its
	// pooled canonical form (possible when distinct predicates share a
	// canonical key). Constraints reference predicates by combined index,
	// so a restored constraint is byte-identical to the saved one.
	combined := symImg.Preds
	nPool := len(combined)
	predIdx := make(map[predicate.Predicate]int32, nPool)
	for i, p := range combined {
		predIdx[p] = int32(i)
	}
	idxOf := func(p predicate.Predicate) uint32 {
		if id, ok := predIdx[p]; ok {
			return uint32(id)
		}
		id := int32(len(combined))
		combined = append(combined, p)
		predIdx[p] = id
		return uint32(id)
	}

	consPayload := encodeConstraints(all, m.Dead, st, idxOf)
	predsPayload := encodePreds(combined, nPool, symImg.PoolSlots, st)
	symPayload := encodeSymtab(symImg, st)
	idxPayload := encodeIndex(idxImg)

	secs := []struct {
		id      uint32
		payload []byte
	}{
		{secStrings, st.encode()},
		{secPreds, predsPayload},
		{secSymtab, symPayload},
		{secConstraints, consPayload},
		{secIndex, idxPayload},
	}

	crcs := make([]uint32, len(secs))
	for i, s := range secs {
		crcs[i] = crc32.Checksum(s.payload, castagnoli)
	}
	id := snapID(m.SchemaHash, m.Seq, crcs)

	// Lay out: header, section table, 8-byte-aligned payloads.
	offset := align8(headerSize + len(secs)*secEntrySize)
	offsets := make([]int, len(secs))
	for i, s := range secs {
		offsets[i] = offset
		offset = align8(offset + len(s.payload))
	}
	out := make([]byte, offset)

	copy(out, Magic)
	binary.LittleEndian.PutUint16(out[8:], FormatVersion)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(secs)))
	binary.LittleEndian.PutUint64(out[16:], m.SchemaHash)
	binary.LittleEndian.PutUint64(out[24:], m.Seq)
	binary.LittleEndian.PutUint64(out[32:], id)
	binary.LittleEndian.PutUint32(out[40:], crc32.Checksum(out[:40], castagnoli))

	for i, s := range secs {
		base := headerSize + i*secEntrySize
		binary.LittleEndian.PutUint32(out[base:], s.id)
		binary.LittleEndian.PutUint64(out[base+4:], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(out[base+12:], uint64(len(s.payload)))
		binary.LittleEndian.PutUint32(out[base+20:], crcs[i])
		copy(out[offsets[i]:], s.payload)
	}
	return out, id, nil
}

// ReadInfo parses just the header, verifying magic, version and header
// checksum — enough for a store to decide whether a file is worth decoding.
func ReadInfo(data []byte) (Info, error) {
	if len(data) < headerSize {
		return Info{}, fmt.Errorf("%w: %d-byte file", ErrCorrupt, len(data))
	}
	if string(data[:8]) != Magic {
		return Info{}, ErrBadMagic
	}
	version := binary.LittleEndian.Uint16(data[8:])
	if crc32.Checksum(data[:40], castagnoli) != binary.LittleEndian.Uint32(data[40:]) {
		return Info{}, fmt.Errorf("%w: header", ErrChecksum)
	}
	if version != FormatVersion {
		return Info{}, fmt.Errorf("%w: file has v%d, this build reads v%d", ErrVersion, version, FormatVersion)
	}
	return Info{
		ID:         binary.LittleEndian.Uint64(data[32:]),
		Seq:        binary.LittleEndian.Uint64(data[24:]),
		SchemaHash: binary.LittleEndian.Uint64(data[16:]),
		Version:    version,
	}, nil
}

// Decode rebuilds the model from file bytes. Every section checksum is
// verified (in parallel) before any decoding; any structural inconsistency
// after that — which checksums make practically unreachable short of an
// encoder bug — surfaces as ErrCorrupt, never as a partial model.
//
// The model aliases data (numeric arrays and the string arena are viewed in
// place, not copied — see alias.go): the caller must not modify data after
// a successful decode.
func Decode(data []byte) (m *Model, info Info, err error) {
	info, err = ReadInfo(data)
	if err != nil {
		return nil, Info{}, err
	}
	defer func() {
		if rec := recover(); rec != nil {
			m, err = nil, fmt.Errorf("%w: %v", ErrCorrupt, rec)
		}
	}()

	nSec := int(binary.LittleEndian.Uint32(data[12:]))
	if nSec < 0 || nSec > maxSections || headerSize+nSec*secEntrySize > len(data) {
		return nil, Info{}, fmt.Errorf("%w: section table", ErrCorrupt)
	}
	secs := make(map[uint32][]byte, nSec)
	type job struct {
		payload []byte
		crc     uint32
	}
	jobs := make([]job, 0, nSec)
	for i := 0; i < nSec; i++ {
		base := headerSize + i*secEntrySize
		id := binary.LittleEndian.Uint32(data[base:])
		off := binary.LittleEndian.Uint64(data[base+4:])
		length := binary.LittleEndian.Uint64(data[base+12:])
		crc := binary.LittleEndian.Uint32(data[base+20:])
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, Info{}, fmt.Errorf("%w: section %d spans beyond file", ErrCorrupt, id)
		}
		payload := data[off : off+length : off+length]
		secs[id] = payload
		jobs = append(jobs, job{payload, crc})
	}
	bad := make(chan uint32, nSec)
	chunks(len(jobs), 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if crc32.Checksum(jobs[i].payload, castagnoli) != jobs[i].crc {
				bad <- uint32(i)
			}
		}
	})
	close(bad)
	if i, open := <-bad; open {
		return nil, Info{}, fmt.Errorf("%w: section index %d", ErrChecksum, i)
	}
	for _, id := range []uint32{secStrings, secPreds, secSymtab, secConstraints, secIndex} {
		if secs[id] == nil {
			return nil, Info{}, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
		}
	}

	strs := decodeStrings(secs[secStrings])
	combined, nPool, poolSlots := decodePreds(secs[secPreds], strs)
	all, dead, ordKeys, links := decodeConstraints(secs[secConstraints], strs, combined)
	symImg := decodeSymtab(secs[secSymtab], strs, combined[:nPool:nPool], poolSlots, ordKeys)
	syms, ok := symtab.FromImage(symImg)
	if !ok {
		return nil, Info{}, fmt.Errorf("%w: symbol table image", ErrCorrupt)
	}
	idxImg := decodeIndex(secs[secIndex])
	ix, ok := index.FromImage(idxImg, all, links, syms)
	if !ok {
		return nil, Info{}, fmt.Errorf("%w: index image", ErrCorrupt)
	}

	return &Model{
		SchemaHash: info.SchemaHash,
		Seq:        info.Seq,
		All:        all,
		Dead:       dead,
		Syms:       syms,
		Index:      ix,
	}, info, nil
}

func snapID(schemaHash, seq uint64, crcs []uint32) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], schemaHash)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], seq)
	h.Write(buf[:])
	for _, c := range crcs {
		binary.LittleEndian.PutUint32(buf[:4], c)
		h.Write(buf[:4])
	}
	return h.Sum64()
}

func align8(n int) int { return (n + 7) &^ 7 }

// --- predicates -----------------------------------------------------------

// predMeta packs a predicate's scalar discriminators into one u32.
func predMeta(p predicate.Predicate) uint32 {
	meta := uint32(p.Op)
	if p.IsJoin() {
		meta |= 1 << 8
	}
	meta |= uint32(p.Const.Kind()) << 16
	return meta
}

func encodePreds(combined []predicate.Predicate, nPool int, poolSlots []int32, st *strTable) []byte {
	n := len(combined)
	metas := make([]uint32, n)
	lc := make([]uint32, n)
	la := make([]uint32, n)
	rc := make([]uint32, n)
	ra := make([]uint32, n)
	vstr := make([]uint32, n)
	keys := make([]uint32, n)
	vnums := make([]uint64, n)
	for i, p := range combined {
		metas[i] = predMeta(p)
		lc[i] = st.ref(p.Left.Class)
		la[i] = st.ref(p.Left.Attr)
		rc[i] = st.ref(p.RightAttr.Class)
		ra[i] = st.ref(p.RightAttr.Attr)
		keys[i] = st.ref(p.Key())
		switch p.Const.Kind() {
		case value.KindString:
			vstr[i] = st.ref(p.Const.Str())
		case value.KindInt:
			vnums[i] = uint64(p.Const.IntVal())
		case value.KindFloat:
			vnums[i] = math.Float64bits(p.Const.FloatVal())
		case value.KindBool:
			if p.Const.BoolVal() {
				vnums[i] = 1
			}
		}
	}
	var w wbuf
	w.u32(uint32(nPool))
	putU32s(&w, metas)
	putU32s(&w, lc)
	putU32s(&w, la)
	putU32s(&w, rc)
	putU32s(&w, ra)
	putU32s(&w, vstr)
	putU32s(&w, keys)
	putU64s(&w, vnums)
	putI32s(&w, poolSlots)
	return w.b
}

func decodePreds(b []byte, strs []string) ([]predicate.Predicate, int, []int32) {
	r := &rbuf{b: b}
	nPool := int(r.u32())
	metas := getU32s(r)
	lc := getU32s(r)
	la := getU32s(r)
	rc := getU32s(r)
	ra := getU32s(r)
	vstr := getU32s(r)
	keys := getU32s(r)
	vnums := getU64s(r)
	poolSlots := getI32s[int32](r)
	n := len(metas)
	if nPool < 0 || nPool > n || len(lc) != n || len(la) != n || len(rc) != n ||
		len(ra) != n || len(vstr) != n || len(keys) != n || len(vnums) != n {
		panic("predicate arrays disagree on length")
	}
	preds := make([]predicate.Predicate, n)
	chunks(n, 2048, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			op := predicate.Op(metas[i] & 0xff)
			join := metas[i]>>8&1 == 1
			var cv value.Value
			switch value.Kind(metas[i] >> 16 & 0xff) {
			case value.KindString:
				cv = value.String(deref(strs, vstr[i]))
			case value.KindInt:
				cv = value.Int(int64(vnums[i]))
			case value.KindFloat:
				cv = value.Float(math.Float64frombits(vnums[i]))
			case value.KindBool:
				cv = value.Bool(vnums[i] != 0)
			}
			left := predicate.AttrRef{Class: deref(strs, lc[i]), Attr: deref(strs, la[i])}
			right := predicate.AttrRef{Class: deref(strs, rc[i]), Attr: deref(strs, ra[i])}
			preds[i] = predicate.Rehydrate(left, op, cv, right, join, deref(strs, keys[i]))
		}
	})
	return preds, nPool, poolSlots
}

// --- constraints ----------------------------------------------------------

const (
	flagDead      = 1 << 0
	flagStateDep  = 1 << 1
	flagInterKind = 1 << 2
)

func encodeConstraints(all []*constraint.Constraint, dead []bool, st *strTable, idxOf func(predicate.Predicate) uint32) []byte {
	n := len(all)
	flags := make([]byte, n)
	idRefs := make([]uint32, n)
	docRefs := make([]uint32, n)
	keyRefs := make([]uint32, n)
	consIdx := make([]uint32, n)
	antOff := make([]int32, n+1)
	linkOff := make([]int32, n+1)
	classOff := make([]int32, n+1)
	var antIdx, linkRefs, classRefs []uint32
	for i, c := range all {
		if dead[i] {
			flags[i] |= flagDead
		}
		if c.StateDependent {
			flags[i] |= flagStateDep
		}
		if c.Kind() == constraint.Inter {
			flags[i] |= flagInterKind
		}
		idRefs[i] = st.ref(c.ID)
		docRefs[i] = st.ref(c.Doc)
		keyRefs[i] = st.ref(c.Key())
		consIdx[i] = idxOf(c.Consequent)
		for _, a := range c.Antecedents {
			antIdx = append(antIdx, idxOf(a))
		}
		antOff[i+1] = int32(len(antIdx))
		linkRefs = append(linkRefs, st.refs(c.Links)...)
		linkOff[i+1] = int32(len(linkRefs))
		classRefs = append(classRefs, st.refs(c.Classes())...)
		classOff[i+1] = int32(len(classRefs))
	}
	var w wbuf
	w.u32(uint32(n))
	w.raw(flags)
	putU32s(&w, idRefs)
	putU32s(&w, docRefs)
	putU32s(&w, keyRefs)
	putU32s(&w, consIdx)
	putI32s(&w, antOff)
	putU32s(&w, antIdx)
	putI32s(&w, linkOff)
	putU32s(&w, linkRefs)
	putI32s(&w, classOff)
	putU32s(&w, classRefs)
	return w.b
}

// decodeConstraints restores the ordinal space lazily: it checks every
// reference the constraint section makes, so building a constraint later
// cannot fail, and returns the space with each constraint built on first
// access. Alongside come what the rest of the restore needs without
// building one: the tombstone set, the live canonical keys (the symbol
// table's ordinal lookup) and the per-ordinal link sets (the index's
// relevance check, shared with the constraints built later).
func decodeConstraints(b []byte, strs []string, preds []predicate.Predicate) (all constraint.Ordinals, dead []bool, ordKeys []string, links [][]string) {
	r := &rbuf{b: b}
	n := r.count(1)
	flags := r.raw(n)
	idRefs := getU32s(r)
	docRefs := getU32s(r)
	keyRefs := getU32s(r)
	consIdx := getU32s(r)
	antOff := getI32s[int32](r)
	antIdx := getU32s(r)
	linkOff := getI32s[int32](r)
	linkRefs := getU32s(r)
	classOff := getI32s[int32](r)
	classRefs := getU32s(r)
	if len(idRefs) != n || len(docRefs) != n || len(keyRefs) != n || len(consIdx) != n ||
		len(antOff) != n+1 || len(linkOff) != n+1 || len(classOff) != n+1 {
		panic("constraint arrays disagree on length")
	}
	for _, refs := range [][]uint32{idRefs, docRefs, keyRefs, linkRefs, classRefs} {
		checkRefs(refs, len(strs))
	}
	checkRefs(consIdx, len(preds))
	checkRefs(antIdx, len(preds))
	checkOffsets(antOff, len(antIdx))
	checkOffsets(linkOff, len(linkRefs))
	checkOffsets(classOff, len(classRefs))

	dead = make([]bool, n)
	ordKeys = make([]string, n)
	links = make([][]string, n)
	linkArena := make([]string, len(linkRefs))
	for i := range n {
		dead[i] = flags[i]&flagDead != 0
		if !dead[i] {
			ordKeys[i] = deref(strs, keyRefs[i])
		}
		// Empty rows restore as nil, matching what constraint.New's
		// append-copy of a nil slice produces on the cold path.
		if a, b := linkOff[i], linkOff[i+1]; b > a {
			links[i] = linkArena[a:b:b]
			for j, ref := range linkRefs[a:b] {
				links[i][j] = deref(strs, ref)
			}
		}
	}

	build := func(i int) *constraint.Constraint {
		kind := constraint.Intra
		if flags[i]&flagInterKind != 0 {
			kind = constraint.Inter
		}
		var ants []predicate.Predicate
		if a, b := antOff[i], antOff[i+1]; b > a {
			ants = make([]predicate.Predicate, b-a)
			for j, pi := range antIdx[a:b] {
				ants[j] = preds[pi]
			}
		}
		a, b := classOff[i], classOff[i+1]
		classes := make([]string, b-a)
		for j, ref := range classRefs[a:b] {
			classes[j] = deref(strs, ref)
		}
		return constraint.Restore(
			deref(strs, idRefs[i]), deref(strs, docRefs[i]),
			ants, links[i], preds[consIdx[i]],
			flags[i]&flagStateDep != 0, kind, classes,
			deref(strs, keyRefs[i]),
		)
	}
	return constraint.LazyOrdinals(n, build), dead, ordKeys, links
}

// checkRefs panics (→ ErrCorrupt) on a reference at or beyond limit.
func checkRefs(refs []uint32, limit int) {
	for _, ref := range refs {
		if int(ref) >= limit {
			panic(fmt.Sprintf("snapshot: reference %d beyond table of %d", ref, limit))
		}
	}
}

// checkOffsets panics (→ ErrCorrupt) unless offs is a CSR spine over a flat
// array of flatLen elements: non-negative, non-decreasing, within bounds.
func checkOffsets(offs []int32, flatLen int) {
	prev := int32(0)
	for _, off := range offs {
		if off < prev || int(off) > flatLen {
			panic("snapshot: CSR offsets not monotonic")
		}
		prev = off
	}
}

// --- symbol table ---------------------------------------------------------

func encodeSymtab(img *symtab.Image, st *strTable) []byte {
	var w wbuf
	putU32s(&w, st.refs(img.ClassNames))
	putI32s(&w, img.ClassSlots)
	putU32s(&w, st.refs(img.AttrClasses))
	putU32s(&w, st.refs(img.AttrNames))
	putI32s(&w, img.AttrSlots)
	putI32s(&w, img.PredSig)
	w.u32(uint32(img.NSigs))
	putI32s(&w, img.SigRep)
	putI32s(&w, img.SigSlots)
	fwdOff, fwdFlat := flatten(img.Fwd)
	putI32s(&w, fwdOff)
	putI32s(&w, fwdFlat)
	revOff, revFlat := flatten(img.Rev)
	putI32s(&w, revOff)
	putI32s(&w, revFlat)
	putI32s(&w, img.Cons)
	putI32s(&w, img.AntOffsets)
	putI32s(&w, img.AntsFlat)
	putI32s(&w, img.OrdSlots)
	return w.b
}

func decodeSymtab(b []byte, strs []string, poolPreds []predicate.Predicate, poolSlots []int32, ordKeys []string) *symtab.Image {
	r := &rbuf{b: b}
	img := &symtab.Image{
		Preds:     poolPreds,
		PoolSlots: poolSlots,
		OrdKeys:   ordKeys,
	}
	img.ClassNames = derefAll(strs, getU32s(r))
	img.ClassSlots = getI32s[int32](r)
	img.AttrClasses = derefAll(strs, getU32s(r))
	img.AttrNames = derefAll(strs, getU32s(r))
	img.AttrSlots = getI32s[int32](r)
	img.PredSig = getI32s[int32](r)
	img.NSigs = int(r.u32())
	img.SigRep = getI32s[symtab.PredID](r)
	img.SigSlots = getI32s[int32](r)
	img.Fwd = unflatten(getI32s[int32](r), getI32s[symtab.PredID](r))
	img.Rev = unflatten(getI32s[int32](r), getI32s[symtab.PredID](r))
	img.Cons = getI32s[symtab.PredID](r)
	img.AntOffsets = getI32s[int32](r)
	img.AntsFlat = getI32s[symtab.PredID](r)
	img.OrdSlots = getI32s[int32](r)
	return img
}

// --- index ----------------------------------------------------------------

func encodeIndex(img *index.Image) []byte {
	var w wbuf
	w.u32(uint32(img.Live))
	putI32s(&w, img.ClassOffsets)
	putI32s(&w, img.ClassOrds)
	putI32s(&w, img.Parked)
	putI32s(&w, img.HomeOf)
	putI32s(&w, img.CIDOffsets)
	putI32s(&w, img.CIDs)
	putI32s(&w, img.AttrOffsets)
	putI32s(&w, img.AttrOrds)
	putI32s(&w, img.AttrPoss)
	w.u32(uint32(img.AttrNonEmpty))
	w.u32(uint32(img.MaxPosting))
	return w.b
}

func decodeIndex(b []byte) *index.Image {
	r := &rbuf{b: b}
	img := &index.Image{}
	img.Live = int(r.u32())
	img.ClassOffsets = getI32s[int32](r)
	img.ClassOrds = getI32s[int32](r)
	img.Parked = getI32s[int32](r)
	img.HomeOf = getI32s[int32](r)
	img.CIDOffsets = getI32s[int32](r)
	img.CIDs = getI32s[symtab.ClassID](r)
	img.AttrOffsets = getI32s[int32](r)
	img.AttrOrds = getI32s[int32](r)
	img.AttrPoss = getI32s[int32](r)
	img.AttrNonEmpty = int(r.u32())
	img.MaxPosting = int(r.u32())
	return img
}

// --- shared CSR helpers ---------------------------------------------------

func flatten[T any](rows [][]T) ([]int32, []T) {
	offs := make([]int32, len(rows)+1)
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	flat := make([]T, 0, total)
	for i, row := range rows {
		flat = append(flat, row...)
		offs[i+1] = int32(len(flat))
	}
	return offs, flat
}

func unflatten[T any](offs []int32, flat []T) [][]T {
	checkOffsets(offs, len(flat))
	rows := make([][]T, len(offs)-1)
	for i := range rows {
		rows[i] = flat[offs[i]:offs[i+1]:offs[i+1]]
	}
	return rows
}

func derefAll(strs []string, refs []uint32) []string {
	out := make([]string, len(refs))
	for i, ref := range refs {
		out[i] = deref(strs, ref)
	}
	return out
}
