package sqo

import (
	"sqo/internal/canon"
	"sqo/internal/predicate"
)

// QueryFingerprint is the canonical 128-bit identity of a query: an
// order-insensitive hash of its five parts, so two queries that differ only
// in how their predicate, class or relationship lists are ordered share one
// fingerprint (and one cache slot). It replaces the string fingerprint of
// earlier versions — computing it allocates nothing and performs no string
// concatenation, which is what lets a cache hit serve with zero heap
// allocations.
//
// Fingerprints are comparable and usable as map keys. They hash content
// only (64-bit FNV-1a items, splitmix64 folds), so they are the same in
// every process and under every catalog generation: the result cache,
// the quarantine register and traces all key on this one value.
type QueryFingerprint struct {
	Hi, Lo uint64
}

// String renders the fingerprint as 32 hex digits, for logs and debugging.
func (f QueryFingerprint) String() string {
	var buf [32]byte
	hex := func(dst []byte, v uint64) {
		const digits = "0123456789abcdef"
		for i := 15; i >= 0; i-- {
			dst[i] = digits[v&0xf]
			v >>= 4
		}
	}
	hex(buf[:16], f.Hi)
	hex(buf[16:], f.Lo)
	return string(buf[:])
}

// Fingerprint returns the canonical cache identity of a query. It hashes
// content only — predicate keys, class, attribute and relationship names —
// so it depends on no catalog: interning a symbol never moves a query's
// fingerprint, and every process computes the same value. Per-section
// accumulators are commutative (sum/xor), so list order cannot perturb the
// result and nothing is sorted — the whole computation touches no heap.
func Fingerprint(q *Query) QueryFingerprint {
	var a fpAcc
	a.project(q)
	for _, p := range q.Joins {
		a.item(fpPred(p))
	}
	a.flush('J')
	for _, p := range q.Selects {
		a.item(fpPred(p))
	}
	a.flush('S')
	a.relsAndClasses(q)
	return a.f.final()
}

// CanonicalizeQuery returns the canonical form of q — duplicate and implied
// conjuncts dropped, equal interval bounds merged into equalities, join
// tautologies removed, all five lists sorted — together with its content
// fingerprint. Queries with the same canonical form share one result-cache
// slot when the engine runs with CacheConfig.Canonicalize. When q is
// already canonical it is returned as-is; otherwise a fresh query is built
// and q is never mutated.
func CanonicalizeQuery(q *Query) (*Query, QueryFingerprint) {
	cq, _ := canon.Canonical(q)
	return cq, Fingerprint(cq)
}

// fpSeedContent keeps predicate hashes out of the item-hash space of the
// plain name hashes.
const fpSeedContent = 0x27d4eb2f165667c5

// canonFingerprint hashes the *canonical form* of q — surviving joins and
// selects after reduction, plus merged bounds — without materializing a
// canonical query. Because the per-section folds are order-insensitive, the
// result is by construction identical to Fingerprint(canon.Canonicalize(q)):
// canonicalization only drops, adds and sorts, and sorting is invisible to
// the fold. The reduction scratch is supplied by the caller (the engine
// pools it), so the lookup path stays allocation-free.
func canonFingerprint(q *Query, red *canon.Reduction) QueryFingerprint {
	canon.Reduce(q, red)
	var a fpAcc
	a.project(q)
	for i, p := range q.Joins {
		if red.JoinKeep[i] {
			a.item(fpPred(p))
		}
	}
	a.flush('J')
	for i, p := range q.Selects {
		if red.SelKeep[i] {
			a.item(fpPred(p))
		}
	}
	for i, p := range red.Merged {
		if red.SelKeep[len(q.Selects)+i] {
			a.item(fpPred(p))
		}
	}
	a.flush('S')
	a.relsAndClasses(q)
	return a.f.final()
}

// envelopeFingerprint hashes a query's subsumption envelope: projection,
// joins, relationships and classes — every part except the selective
// predicates. Queries sharing an envelope are exactly the candidates for the
// containment lookup (a cached generalization can only answer a query that
// adds selective conjuncts). The caller passes an already-canonical query,
// so no reduction runs here.
func envelopeFingerprint(q *Query) QueryFingerprint {
	var a fpAcc
	a.project(q)
	for _, p := range q.Joins {
		a.item(fpPred(p))
	}
	a.flush('J')
	a.relsAndClasses(q)
	return a.f.final()
}

// fpAcc accumulates one section's item hashes (order-insensitively) and
// folds each finished section into the running 128-bit state.
type fpAcc struct {
	f        fpFold
	sum, xor uint64
	n        int
}

func (a *fpAcc) item(h uint64) {
	a.sum += h
	a.xor ^= h
	a.n++
}

func (a *fpAcc) flush(tag uint64) {
	a.f.fold(tag, a.sum, a.xor, a.n)
	a.sum, a.xor, a.n = 0, 0, 0
}

func (a *fpAcc) project(q *Query) {
	for _, r := range q.Project {
		a.item(fpAttrRef(r))
	}
	a.flush('P')
}

func (a *fpAcc) relsAndClasses(q *Query) {
	for _, r := range q.Relationships {
		a.item(fpString(r))
	}
	a.flush('R')
	for _, c := range q.Classes {
		a.item(fpString(c))
	}
	a.flush('C')
}

// fpPred hashes one predicate by its canonical key (precomputed at
// construction — no rebuild).
func fpPred(p Predicate) uint64 {
	return fpMix(fpString(p.Key()) ^ fpSeedContent)
}

// fpAttrRef hashes one attribute reference. The class hash is mixed before
// the attribute's is folded in, so x.y and y.x hash apart.
func fpAttrRef(a predicate.AttrRef) uint64 {
	return fpMix(fpMix(fpString(a.Class)) ^ fpString(a.Attr))
}

// fpString is 64-bit FNV-1a, inlined to keep the path allocation-free.
func fpString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// fpMix is the splitmix64 finalizer: a bijective 64-bit scrambler, so
// distinct item hashes can never collide before the fold.
func fpMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fpFold accumulates section digests into the final 128 bits. Sections are
// folded in a fixed order with their tag and cardinality, so an empty
// section still advances the state and items can never migrate between
// sections.
type fpFold struct {
	h1, h2 uint64
}

func (f *fpFold) fold(tag, sum, xor uint64, n int) {
	x := fpMix(sum ^ fpMix(xor) ^ uint64(n)<<8 ^ tag)
	f.h1 = fpMix(f.h1 ^ x)
	f.h2 = f.h2*0x9e3779b97f4a7c15 + x
}

func (f *fpFold) final() QueryFingerprint {
	return QueryFingerprint{Hi: fpMix(f.h1 ^ f.h2), Lo: fpMix(f.h2 + 0x632be59bd9b4e019)}
}
