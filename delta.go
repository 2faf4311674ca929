package sqo

import (
	"sqo/internal/delta"
)

// CatalogDelta describes an incremental mutation of an engine's declared
// constraint catalog: constraints to add, remove (by ID) or replace. Build
// one with NewCatalogDelta (the builder methods chain) and apply it with
// Engine.UpdateCatalog, which patches the current catalog generation in
// work proportional to the delta instead of rebuilding it from scratch.
//
// Ops apply in the order they were recorded. The resulting catalog order is
// the surviving constraints in their previous order followed by the
// additions — a replaced constraint therefore moves to the end of the
// catalog order. Additions that logically duplicate a live constraint
// (same canonical Key) are merged away, mirroring Catalog.Add.
type CatalogDelta struct {
	ops []delta.Op
}

// NewCatalogDelta returns an empty delta.
func NewCatalogDelta() *CatalogDelta { return &CatalogDelta{} }

// AddConstraints records constraints to append to the catalog.
func (d *CatalogDelta) AddConstraints(cs ...*Constraint) *CatalogDelta {
	for _, c := range cs {
		d.ops = append(d.ops, delta.Op{Kind: delta.Add, C: c})
	}
	return d
}

// RemoveConstraints records constraints to remove, by ID. Applying a delta
// that removes an unknown ID fails (and changes nothing).
func (d *CatalogDelta) RemoveConstraints(ids ...string) *CatalogDelta {
	for _, id := range ids {
		d.ops = append(d.ops, delta.Op{Kind: delta.Remove, ID: id})
	}
	return d
}

// ReplaceConstraint records the removal of the constraint with the given ID
// and the addition of c in its stead. The replacement takes a fresh slot at
// the end of the catalog order; its ID may equal the removed one.
func (d *CatalogDelta) ReplaceConstraint(id string, c *Constraint) *CatalogDelta {
	d.ops = append(d.ops, delta.Op{Kind: delta.Replace, ID: id, C: c})
	return d
}

// Len returns the number of recorded ops.
func (d *CatalogDelta) Len() int { return len(d.ops) }

// Empty reports whether the delta records no ops.
func (d *CatalogDelta) Empty() bool { return d == nil || len(d.ops) == 0 }

// DiffCatalogs computes the delta that turns catalog from into catalog to,
// comparing constraints by canonical Key: constraints of from whose key is
// absent from to are removed, constraints of to whose key is absent from
// from are added. This is the bridge from re-derivation to incremental
// update: re-derive state rules from the mutated database, diff against the
// engine's current catalog, and apply only what actually changed (see
// examples/mutation).
//
// The delta is key-based: a constraint whose key both catalogs hold keeps
// its ID, Doc and place from from, and additions go last, so the result
// serves to's rules but not necessarily to's IDs or order. To serve exactly
// a catalog — its IDs, docs and order — use Engine.SwapCatalog, which
// applies its own exact delta.
func DiffCatalogs(from, to *Catalog) *CatalogDelta {
	d := NewCatalogDelta()
	toKeys := make(map[string]bool, to.Len())
	for _, c := range to.All() {
		toKeys[c.Key()] = true
	}
	fromKeys := make(map[string]bool, from.Len())
	for _, c := range from.All() {
		fromKeys[c.Key()] = true
		if !toKeys[c.Key()] {
			d.RemoveConstraints(c.ID)
		}
	}
	for _, c := range to.All() {
		if !fromKeys[c.Key()] {
			d.AddConstraints(c)
		}
	}
	return d
}
