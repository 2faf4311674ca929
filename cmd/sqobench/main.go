// Command sqobench regenerates the paper's evaluation (Section 4): every
// table and figure, plus the ablations indexed in DESIGN.md, printed as
// paper-style ASCII tables.
//
// Usage:
//
//	sqobench                 # run everything
//	sqobench -exp table42    # one experiment
//	sqobench -queries 40 -seed 41
//
// Experiments: fig41, table41, table42, grouping, closure, budget,
// optimizers, complexity, engine, index, endtoend, all.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sqo"
	"sqo/internal/bench"
)

var (
	exp      = flag.String("exp", "all", "experiment to run (fig41|table41|table42|grouping|closure|budget|optimizers|complexity|engine|index|endtoend|all)")
	queries  = flag.Int("queries", 40, "workload size (the paper used 40)")
	seed     = flag.Int64("seed", 41, "workload selection seed")
	csvTo    = flag.String("csv", "", "also write the raw per-query Table 4.2 data as CSV to this file")
	passes   = flag.Int("passes", 8, "repeated-workload passes for the engine experiment")
	catalogs = flag.String("catalogs", "100,1000,10000", "comma-separated catalog sizes for the index experiment")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sqobench:", err)
		os.Exit(1)
	}
}

func run() error {
	want := strings.ToLower(*exp)
	all := want == "all"
	ran := false

	if all || want == "fig41" {
		ran = true
		fmt.Println(bench.RunFig41().Render())
	}
	if all || want == "table41" {
		ran = true
		rows, err := bench.RunTable41()
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTable41(rows))
	}
	if all || want == "table42" {
		ran = true
		res, err := bench.RunTable42(*queries, *seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if *csvTo != "" {
			if err := os.WriteFile(*csvTo, []byte(res.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	if all || want == "grouping" {
		ran = true
		rows, err := bench.RunGrouping(*queries, *seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderGrouping(rows))
	}
	if all || want == "closure" {
		ran = true
		rows, err := bench.RunClosure([]int{2, 3, 4, 6})
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderClosure(rows))
	}
	if all || want == "budget" {
		ran = true
		rows, err := bench.RunBudget([]int{1, 2, 3, 0}, min(*queries, 15), *seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderBudget(rows))
	}
	if all || want == "optimizers" {
		ran = true
		rows, err := bench.RunOptimizerComparison(min(*queries, 15), *seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderOptimizerComparison(rows))
	}
	if all || want == "complexity" {
		ran = true
		rows, err := bench.RunComplexity([]int{4, 8, 16, 32, 64})
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderComplexity(rows))
	}
	if all || want == "index" {
		ran = true
		sizes, err := parseSizes(*catalogs)
		if err != nil {
			return err
		}
		rows, err := bench.RunIndexScaling(sizes, 64, *seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderIndexScaling(rows))
	}
	if all || want == "endtoend" {
		ran = true
		rows, err := bench.RunEndToEnd([]int{100, 1000}, *queries, *seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderEndToEnd(rows))
	}
	if all || want == "engine" {
		ran = true
		out, err := runEngine(*queries, *seed, *passes)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

// runEngine measures the serving-layer amortization the sqo.Engine adds on
// top of the paper's algorithm: one workload optimized repeatedly through a
// shared engine, with and without the fingerprint-keyed result cache, both
// sequentially and via the OptimizeBatch worker pool.
func runEngine(queries int, seed int64, passes int) (string, error) {
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		return "", err
	}
	cat := sqo.LogisticsConstraints()
	model := sqo.NewCostModel(db.Schema(), db.Analyze(), sqo.DefaultWeights)
	gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: seed})
	workload, err := gen.Workload(queries)
	if err != nil {
		return "", err
	}
	ctx := context.Background()

	build := func(cache int) (*sqo.Engine, error) {
		opts := []sqo.EngineOption{
			sqo.WithCatalog(cat),
			sqo.WithCostModel(model),
		}
		if cache > 0 {
			opts = append(opts, sqo.WithCache(sqo.CacheConfig{Capacity: cache}))
		}
		return sqo.NewEngine(db.Schema(), opts...)
	}
	sequential := func(e *sqo.Engine) error {
		for _, q := range workload {
			if _, err := e.Optimize(ctx, q); err != nil {
				return err
			}
		}
		return nil
	}
	batched := func(e *sqo.Engine) error {
		_, err := e.OptimizeBatch(ctx, workload)
		return err
	}

	var sb strings.Builder
	sb.WriteString("Engine: repeated-workload serving (DB1, shared engine)\n")
	fmt.Fprintf(&sb, "%-28s%14s%14s\n", "mode", "total", "per pass")
	for _, mode := range []struct {
		name  string
		cache int
		pass  func(*sqo.Engine) error
	}{
		{"sequential, uncached", 0, sequential},
		{"sequential, cached", 2 * queries, sequential},
		{"batch pool, uncached", 0, batched},
		{"batch pool, cached", 2 * queries, batched},
	} {
		e, err := build(mode.cache)
		if err != nil {
			return "", err
		}
		start := time.Now()
		for p := 0; p < passes; p++ {
			if err := mode.pass(e); err != nil {
				return "", err
			}
		}
		total := time.Since(start)
		label := mode.name
		if hits := e.Stats().Cache.Hits(); hits > 0 {
			label = fmt.Sprintf("%s (%d hits)", mode.name, hits)
		}
		fmt.Fprintf(&sb, "%-28s%14v%14v\n",
			label, total.Round(time.Microsecond),
			(total / time.Duration(passes)).Round(time.Microsecond))
	}
	fmt.Fprintf(&sb, "\n%d queries x %d passes; the cached rows pay the transformation\n", queries, passes)
	sb.WriteString("cost once per distinct query fingerprint and serve the rest from the LRU.\n")
	return sb.String(), nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// parseSizes reads the -catalogs list.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad catalog size %q (want a positive integer such as 10000, not 1e4)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-catalogs is empty")
	}
	return out, nil
}
