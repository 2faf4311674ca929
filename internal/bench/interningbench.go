package bench

// The interning experiment: what the compiled symbol space (dense
// class/attribute/predicate IDs + pooled per-query scratch) buys over the
// string-space transformation table, at the paper's catalog size and at
// scaled ones. This is the ablation behind DESIGN.md deviation #8.

import (
	"fmt"
	"runtime"
	"strings"

	"sqo/internal/constraint"
	"sqo/internal/core"
	"sqo/internal/datagen"
	"sqo/internal/index"
	"sqo/internal/query"
	"sqo/internal/schema"
)

// InterningRow compares interned and string-space optimization on one world.
type InterningRow struct {
	World       string
	Constraints int
	// Per-query full optimization, µs.
	InternUS float64
	StringUS float64
	// Per-query heap allocations (count and bytes).
	InternAllocs float64
	StringAllocs float64
	InternBytes  float64
	StringBytes  float64
}

// Speedup is the end-to-end per-query ratio.
func (r InterningRow) Speedup() float64 {
	if r.InternUS == 0 {
		return 0
	}
	return r.StringUS / r.InternUS
}

// RunInterning measures the experiment on the paper's logistics world and
// the scaled worlds of the given sizes. Both sides retrieve through the same
// inverted index, so the ablation isolates the representation of the
// transformation layers, not retrieval.
func RunInterning(sizes []int, queries int, seed int64) ([]InterningRow, error) {
	var rows []InterningRow

	w, err := NewWorld(datagen.DB1())
	if err != nil {
		return nil, err
	}
	logistics, err := w.Workload(queries, seed)
	if err != nil {
		return nil, err
	}
	row, err := interningCell("logistics", w.DB.Schema(), w.Catalog, logistics)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	for _, n := range sizes {
		sch, cat, err := datagen.GenerateScaled(datagen.ScaledConfig{Constraints: n, Seed: seed})
		if err != nil {
			return nil, err
		}
		qs, err := datagen.ScaledWorkload(sch, cat, queries, seed+1)
		if err != nil {
			return nil, err
		}
		row, err := interningCell(fmt.Sprintf("scaled-%d", n), sch, cat, qs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// interningCell measures one world under both representations.
func interningCell(label string, sch *schema.Schema, cat *constraint.Catalog, qs []*query.Query) (InterningRow, error) {
	ix := index.New(cat)
	interned := core.NewOptimizer(sch, ix, core.Options{Cost: core.HeuristicCost{Schema: sch}})
	stringSpace := core.NewOptimizer(sch, stringSpaceSource{ix}, core.Options{Cost: core.HeuristicCost{Schema: sch}})
	row := InterningRow{World: label, Constraints: cat.Len()}

	var optErr error
	measure := func(o *core.Optimizer) (float64, float64, float64) {
		run := func(q *query.Query) {
			if _, err := o.Optimize(q); err != nil && optErr == nil {
				optErr = err
			}
		}
		us := perQueryMicros(qs, run)
		// One counted pass for the allocation profile; Mallocs/TotalAlloc
		// advance monotonically regardless of GC.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, q := range qs {
			run(q)
		}
		runtime.ReadMemStats(&after)
		nq := float64(len(qs))
		return us,
			float64(after.Mallocs-before.Mallocs) / nq,
			float64(after.TotalAlloc-before.TotalAlloc) / nq
	}
	row.InternUS, row.InternAllocs, row.InternBytes = measure(interned)
	row.StringUS, row.StringAllocs, row.StringBytes = measure(stringSpace)
	if optErr != nil {
		return row, optErr
	}
	return row, nil
}

// stringSpaceSource retrieves through the index but hides its symbol space,
// so the optimizer runs its transformation table in string space.
type stringSpaceSource struct{ ix *index.Index }

func (s stringSpaceSource) Retrieve(q *query.Query) []*constraint.Constraint {
	return s.ix.Retrieve(q)
}

func (stringSpaceSource) RetrievesOnlyRelevant() {}

// RenderInterning prints the experiment as a paper-style table.
func RenderInterning(rows []InterningRow) string {
	var sb strings.Builder
	sb.WriteString("Interning: symbol-space vs string-space transformation (same index retrieval)\n")
	fmt.Fprintf(&sb, "%-14s%9s%12s%12s%12s%12s%11s%11s%9s\n",
		"world", "rules", "intern µs", "string µs",
		"intern a/q", "string a/q", "intern B/q", "string B/q", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s%9d%12.2f%12.2f%12.1f%12.1f%11.0f%11.0f%8.1fx\n",
			r.World, r.Constraints, r.InternUS, r.StringUS,
			r.InternAllocs, r.StringAllocs, r.InternBytes, r.StringBytes, r.Speedup())
	}
	sb.WriteString("\nBoth sides retrieve through the inverted index; the gap is the per-query\n")
	sb.WriteString("string hashing and table re-interning the compiled symbol space removes.\n")
	return sb.String()
}
