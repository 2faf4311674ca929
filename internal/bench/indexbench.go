package bench

// The index-scaling experiment: how applicable-constraint retrieval and full
// optimization behave as the catalog grows past the paper's 17 rules, with
// and without the inverted constraint index. This is the ablation behind the
// index layer (DESIGN.md deviation #7).

import (
	"fmt"
	"strings"
	"time"

	"sqo/internal/core"
	"sqo/internal/datagen"
	"sqo/internal/index"
	"sqo/internal/query"
)

// IndexScalingRow is one catalog size of the index experiment.
type IndexScalingRow struct {
	Constraints int
	Classes     int
	BuildMicros float64 // one-off index construction
	// Per-query retrieval, µs.
	ScanLookupUS  float64
	IndexLookupUS float64
	// Per-query full optimization, µs.
	ScanOptimizeUS  float64
	IndexOptimizeUS float64
	// AvgRelevant is the mean relevant-set size — what both strategies
	// hand to the transformation loop.
	AvgRelevant float64
}

// LookupSpeedup is the retrieval-only ratio.
func (r IndexScalingRow) LookupSpeedup() float64 {
	if r.IndexLookupUS == 0 {
		return 0
	}
	return r.ScanLookupUS / r.IndexLookupUS
}

// OptimizeSpeedup is the end-to-end ratio.
func (r IndexScalingRow) OptimizeSpeedup() float64 {
	if r.IndexOptimizeUS == 0 {
		return 0
	}
	return r.ScanOptimizeUS / r.IndexOptimizeUS
}

// RunIndexScaling measures the experiment at the given catalog sizes with a
// fixed per-size workload.
func RunIndexScaling(sizes []int, queries int, seed int64) ([]IndexScalingRow, error) {
	var rows []IndexScalingRow
	for _, n := range sizes {
		sch, cat, err := datagen.GenerateScaled(datagen.ScaledConfig{Constraints: n, Seed: seed})
		if err != nil {
			return nil, err
		}
		qs, err := datagen.ScaledWorkload(sch, cat, queries, seed+1)
		if err != nil {
			return nil, err
		}

		buildStart := time.Now()
		ix := index.New(cat)
		build := time.Since(buildStart)

		row := IndexScalingRow{
			Constraints: n,
			Classes:     len(sch.Classes()),
			BuildMicros: float64(build.Nanoseconds()) / 1e3,
		}

		var relevant int
		for _, q := range qs {
			relevant += len(ix.Relevant(q))
		}
		row.AvgRelevant = float64(relevant) / float64(len(qs))

		row.IndexLookupUS = perQueryMicros(qs, func(q *query.Query) { ix.Relevant(q) })
		row.ScanLookupUS = perQueryMicros(qs, func(q *query.Query) { cat.RelevantTo(q) })

		optIx := core.NewOptimizer(sch, ix, core.Options{Cost: core.HeuristicCost{Schema: sch}})
		optScan := core.NewOptimizer(sch, core.CatalogSource{Catalog: cat}, core.Options{Cost: core.HeuristicCost{Schema: sch}})
		var optErr error
		optimize := func(o *core.Optimizer) func(*query.Query) {
			return func(q *query.Query) {
				if _, err := o.Optimize(q); err != nil && optErr == nil {
					optErr = err
				}
			}
		}
		row.IndexOptimizeUS = perQueryMicros(qs, optimize(optIx))
		row.ScanOptimizeUS = perQueryMicros(qs, optimize(optScan))
		if optErr != nil {
			return nil, optErr
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// perQueryMicros times fn over the workload (one untimed warmup pass to
// settle the heap, then best of three timed passes) and returns µs per query.
func perQueryMicros(qs []*query.Query, fn func(*query.Query)) float64 {
	for _, q := range qs {
		fn(q)
	}
	const passes = 3
	best := time.Duration(-1)
	for p := 0; p < passes; p++ {
		start := time.Now()
		for _, q := range qs {
			fn(q)
		}
		if d := time.Since(start); best < 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / 1e3 / float64(len(qs))
}

// RenderIndexScaling prints the experiment as a paper-style table.
func RenderIndexScaling(rows []IndexScalingRow) string {
	var sb strings.Builder
	sb.WriteString("Index: constraint retrieval scaling (inverted index vs catalog scan)\n")
	fmt.Fprintf(&sb, "%10s%9s%10s%11s%12s%10s%12s%12s%9s\n",
		"catalog", "classes", "relevant", "build µs",
		"scan µs/q", "idx µs/q", "scan opt/q", "idx opt/q", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%10d%9d%10.1f%11.0f%12.2f%10.2f%12.1f%12.1f%8.1fx\n",
			r.Constraints, r.Classes, r.AvgRelevant, r.BuildMicros,
			r.ScanLookupUS, r.IndexLookupUS,
			r.ScanOptimizeUS, r.IndexOptimizeUS, r.OptimizeSpeedup())
	}
	sb.WriteString("\nLookup touches only the query's class posting lists, so its cost tracks\n")
	sb.WriteString("the relevant set, not the catalog; the scan pays O(|catalog|) per query.\n")
	return sb.String()
}
