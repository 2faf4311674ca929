package main

import (
	"fmt"
	"math/rand"

	"sqo"
)

// Request kinds of the near-duplicate stream, and their shares. Exact
// repeats and rewrites land on the canonical cache tier, specializations
// with a fresh constant on the subsumption tier (or miss, when the added
// attribute is one a constraint mentions), unseen queries miss.
const (
	kindExact = iota
	kindRewrite
	kindSpec
	kindUnseen
)

var kindShares = [...]float64{kindExact: 0.45, kindRewrite: 0.30, kindSpec: 0.20, kindUnseen: 0.05}

// nearDup is a near-duplicate request stream over a warmed base pool. The
// pools are bounded; only the constants of specializations are fresh.
type nearDup struct {
	base     []*sqo.Query
	rewrites [][]*sqo.Query // per base query: shuffled lists, one conjunct duplicated
	specs    [][]specialize // per base query: attributes it never touches
	unseen   []*sqo.Query
}

// specialize names an attribute a contained specialization adds an
// equality on.
type specialize struct {
	class, attr string
	kind        sqo.Kind
}

// draw is one request of the stream: its kind, base query, variant, and
// for a specialization the fresh constant.
type draw struct {
	fresh   int64
	base    int32
	variant int16
	kind    int8
}

// newNearDup builds the pools: rewrites and specialization targets for
// every base query.
func newNearDup(sch *sqo.Schema, base, unseen []*sqo.Query, rng *rand.Rand, perBase int) *nearDup {
	nd := &nearDup{base: base, unseen: unseen}
	for _, q := range base {
		var rw []*sqo.Query
		for k := 0; k < perBase; k++ {
			rw = append(rw, permutedDup(q, rng))
		}
		nd.rewrites = append(nd.rewrites, rw)
		var sp []specialize
		for _, off := range rng.Perm(len(q.Classes)) {
			class := q.Classes[off]
			for _, at := range sch.EffectiveAttributes(class) {
				fresh := at.Type == sqo.KindInt || at.Type == sqo.KindString
				if fresh && !touches(q, sqo.AttrRef{Class: class, Attr: at.Name}) && len(sp) < perBase {
					sp = append(sp, specialize{class: class, attr: at.Name, kind: at.Type})
				}
			}
		}
		nd.specs = append(nd.specs, sp)
	}
	return nd
}

// next draws request i of one caller's stream.
func (nd *nearDup) next(rng *rand.Rand, caller, i int) draw {
	u := rng.Float64()
	kind := kindExact
	for k, share := range kindShares {
		if u < share {
			kind = k
			break
		}
		u -= share
	}
	b := rng.Intn(len(nd.base))
	d := draw{kind: int8(kind), base: int32(b)}
	switch kind {
	case kindRewrite:
		d.variant = int16(rng.Intn(len(nd.rewrites[b])))
	case kindSpec:
		if len(nd.specs[b]) == 0 {
			d.kind = kindExact
			break
		}
		d.variant = int16(rng.Intn(len(nd.specs[b])))
		d.fresh = 1_000_000 + int64(caller)<<40 + int64(i)
	case kindUnseen:
		d.base = int32(rng.Intn(len(nd.unseen)))
	}
	return d
}

// query materializes a draw.
func (nd *nearDup) query(d draw) *sqo.Query {
	switch d.kind {
	case kindRewrite:
		return nd.rewrites[d.base][d.variant]
	case kindSpec:
		sp := nd.specs[d.base][d.variant]
		q := cloneQuery(nd.base[d.base])
		q.Selects = append(q.Selects, sqo.Sel(sp.class, sp.attr, sqo.OpEQ, freshValue(sp.kind, d.fresh)))
		return q
	case kindUnseen:
		return nd.unseen[d.base]
	default:
		return nd.base[d.base]
	}
}

// freshValue is a constant of an int or string attribute that no generated
// instance or other request uses.
func freshValue(k sqo.Kind, n int64) sqo.Value {
	if k == sqo.KindInt {
		return sqo.IntValue(n)
	}
	return sqo.StringValue(fmt.Sprintf("zz-%d", n))
}

func cloneQuery(q *sqo.Query) *sqo.Query {
	return &sqo.Query{
		Project:       append([]sqo.AttrRef(nil), q.Project...),
		Joins:         append([]sqo.Predicate(nil), q.Joins...),
		Selects:       append([]sqo.Predicate(nil), q.Selects...),
		Relationships: append([]string(nil), q.Relationships...),
		Classes:       append([]string(nil), q.Classes...),
	}
}

// permutedDup shuffles every list of q and duplicates one conjunct: a
// syntactic near-duplicate that only a canonicalizing cache collapses.
func permutedDup(q *sqo.Query, rng *rand.Rand) *sqo.Query {
	v := cloneQuery(q)
	if len(v.Selects) > 0 {
		v.Selects = append(v.Selects, v.Selects[rng.Intn(len(v.Selects))])
	} else if len(v.Joins) > 0 {
		v.Joins = append(v.Joins, v.Joins[rng.Intn(len(v.Joins))])
	}
	rng.Shuffle(len(v.Project), func(i, j int) { v.Project[i], v.Project[j] = v.Project[j], v.Project[i] })
	rng.Shuffle(len(v.Joins), func(i, j int) { v.Joins[i], v.Joins[j] = v.Joins[j], v.Joins[i] })
	rng.Shuffle(len(v.Selects), func(i, j int) { v.Selects[i], v.Selects[j] = v.Selects[j], v.Selects[i] })
	rng.Shuffle(len(v.Relationships), func(i, j int) {
		v.Relationships[i], v.Relationships[j] = v.Relationships[j], v.Relationships[i]
	})
	rng.Shuffle(len(v.Classes), func(i, j int) { v.Classes[i], v.Classes[j] = v.Classes[j], v.Classes[i] })
	return v
}

func touches(q *sqo.Query, ref sqo.AttrRef) bool {
	for _, a := range q.Project {
		if a == ref {
			return true
		}
	}
	for _, p := range q.Selects {
		if p.Left == ref {
			return true
		}
	}
	for _, p := range q.Joins {
		if p.Left == ref || p.RightAttr == ref {
			return true
		}
	}
	return false
}
