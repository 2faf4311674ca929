// Package bench regenerates every table and figure of the paper's evaluation
// (Section 4) plus the ablations called out in DESIGN.md. Each experiment
// returns a structured result with a Render method that prints rows shaped
// like the paper's, so cmd/sqobench output can be read side by side with the
// original.
//
// Absolute numbers differ from the 1991 SUN-3/160 prototype by construction;
// the reproduction target is the shape: transformation time growing with
// query classes and relevant constraints (Figure 4.1), and optimization
// hurting the smallest database while winning big on the largest
// (Table 4.2).
package bench

import (
	"fmt"
	"strings"
	"time"

	"sqo/internal/constraint"
	"sqo/internal/core"
	"sqo/internal/costmodel"
	"sqo/internal/datagen"
	"sqo/internal/engine"
	"sqo/internal/pathgen"
	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/schema"
	"sqo/internal/storage"
	"sqo/internal/value"
)

// World bundles one database instance with everything the experiments need.
type World struct {
	Config   datagen.Config
	DB       *storage.Database
	Stats    *storage.Stats
	Exec     *engine.Executor
	Model    *costmodel.Model
	Catalog  *constraint.Catalog
	Optimize *core.Optimizer
}

// NewWorld generates the database for cfg and wires the full stack over it.
func NewWorld(cfg datagen.Config) (*World, error) {
	db, err := datagen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	stats := db.Analyze()
	cat := datagen.Constraints()
	model := costmodel.New(db.Schema(), stats, engine.DefaultWeights)
	opt := core.NewOptimizer(db.Schema(), core.CatalogSource{Catalog: cat}, core.Options{Cost: model})
	return &World{
		Config:   cfg,
		DB:       db,
		Stats:    stats,
		Exec:     engine.New(db),
		Model:    model,
		Catalog:  cat,
		Optimize: opt,
	}, nil
}

// Workload generates the n-query path workload for this world.
func (w *World) Workload(n int, seed int64) ([]*query.Query, error) {
	gen := pathgen.NewGenerator(w.DB, w.Catalog, pathgen.Options{Seed: seed})
	return gen.Workload(n)
}

// --- Figure 4.1 ------------------------------------------------------------

// Fig41Result holds the query-transformation-time surface: one row per
// query-class count, one column per relevant-constraint count.
type Fig41Result struct {
	ClassCounts      []int
	ConstraintCounts []int
	// Micros[i][j] is the mean transformation time in microseconds for
	// queries over ClassCounts[i] classes with ConstraintCounts[j]
	// relevant constraints.
	Micros [][]float64
	// Ops[i][j] is the same cell's counted work (Result.Stats.Ops): a
	// deterministic measure of the surface, free of timing noise.
	Ops [][]int64
}

// RunFig41 reproduces Figure 4.1 on a synthetic chain schema where both
// dimensions are controlled exactly: queries span 1..5 chained classes and
// the relevant constraint count is 1, 5 or 9 (the paper's three curves).
func RunFig41() *Fig41Result {
	res := &Fig41Result{
		ClassCounts:      []int{1, 2, 3, 4, 5},
		ConstraintCounts: []int{1, 5, 9},
	}
	for _, k := range res.ClassCounts {
		row := make([]float64, len(res.ConstraintCounts))
		ops := make([]int64, len(res.ConstraintCounts))
		for j, n := range res.ConstraintCounts {
			row[j], ops[j] = measureTransform(k, n)
		}
		res.Micros = append(res.Micros, row)
		res.Ops = append(res.Ops, ops)
	}
	return res
}

// chainSchema builds t1 - t2 - … - tC with `attrs` integer attributes per
// class (a0 is the antecedent hook, a1.. are consequent targets).
func chainSchema(classes, attrs int) *schema.Schema {
	b := schema.NewBuilder()
	for i := 1; i <= classes; i++ {
		var as []schema.Attribute
		for a := 0; a < attrs; a++ {
			as = append(as, schema.Attribute{Name: fmt.Sprintf("a%d", a), Type: value.KindInt})
		}
		b.Class(fmt.Sprintf("t%d", i), as...)
	}
	for i := 1; i < classes; i++ {
		b.Relationship(fmt.Sprintf("r%d", i), fmt.Sprintf("t%d", i), fmt.Sprintf("t%d", i+1), schema.ManyToOne)
	}
	return b.MustBuild()
}

// chainConstraints spreads n fireable intra-class constraints over the k
// query classes: constraint j lives on class t((j mod k)+1) with antecedent
// a0 = 1 (present in the query) and consequent a(j+1) = j.
func chainConstraints(k, n int) *constraint.Catalog {
	var cs []*constraint.Constraint
	for j := 0; j < n; j++ {
		cl := fmt.Sprintf("t%d", j%k+1)
		cs = append(cs, constraint.New(
			fmt.Sprintf("s%d", j),
			[]predicate.Predicate{predicate.Eq(cl, "a0", value.Int(1))},
			nil,
			predicate.Eq(cl, fmt.Sprintf("a%d", j+1), value.Int(int64(j))),
		))
	}
	return constraint.MustCatalog(cs...)
}

// chainQuery selects a0 = 1 on every class so all constraints can fire.
func chainQuery(k int) *query.Query {
	var classes []string
	for i := 1; i <= k; i++ {
		classes = append(classes, fmt.Sprintf("t%d", i))
	}
	q := query.New(classes...).AddProject(classes[len(classes)-1], "a0")
	for _, cl := range classes {
		q.AddSelect(predicate.Eq(cl, "a0", value.Int(1)))
	}
	for i := 1; i < k; i++ {
		q.AddRelationship(fmt.Sprintf("r%d", i))
	}
	return q
}

// measureTransform returns the mean transformation time in microseconds for
// one (classes, constraints) cell, amortized over enough repetitions to be
// stable, and the counted work of one optimization of the cell.
func measureTransform(k, n int) (float64, int64) {
	sch := chainSchema(k, n+2)
	cat := chainConstraints(k, n)
	opt := core.NewOptimizer(sch, core.CatalogSource{Catalog: cat}, core.Options{
		Cost: core.HeuristicCost{Schema: sch},
	})
	q := chainQuery(k)

	// Warm up and verify.
	first, err := opt.Optimize(q)
	if err != nil {
		panic(fmt.Sprintf("bench: fig 4.1 cell (%d,%d): %v", k, n, err))
	}
	const minDuration = 25 * time.Millisecond
	var total time.Duration
	iters := 0
	for total < minDuration {
		res, err := opt.Optimize(q)
		if err != nil {
			panic(err)
		}
		total += res.Stats.TransformDuration
		iters++
	}
	return float64(total.Microseconds()) / float64(iters), first.Stats.Ops
}

// Render prints the surface with classes down and constraint counts across,
// mirroring the figure's axes.
func (r *Fig41Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 4.1: query transformation time (microseconds)\n")
	sb.WriteString("classes\\constraints")
	for _, n := range r.ConstraintCounts {
		fmt.Fprintf(&sb, "%10d", n)
	}
	sb.WriteByte('\n')
	for i, k := range r.ClassCounts {
		fmt.Fprintf(&sb, "%19d", k)
		for j := range r.ConstraintCounts {
			fmt.Fprintf(&sb, "%10.2f", r.Micros[i][j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
