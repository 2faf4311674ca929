// Command sqogen inspects the evaluation world: it prints the logistics
// schema's simple paths, generates workload queries the way the paper did,
// and reports database instance statistics.
//
// Usage:
//
//	sqogen -paths              # all simple schema paths
//	sqogen -n 40 -seed 41      # the 40-query workload
//	sqogen -db DB3 -stats      # statistics of one generated instance
//	sqogen -constraints        # the semantic constraint catalog
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"sqo"
)

var (
	showPaths       = flag.Bool("paths", false, "print every simple path of the schema graph")
	n               = flag.Int("n", 0, "generate an n-query workload")
	seed            = flag.Int64("seed", 41, "workload seed")
	dbName          = flag.String("db", "DB1", "database instance (DB1..DB4)")
	showStats       = flag.Bool("stats", false, "print generated database statistics")
	showConstraints = flag.Bool("constraints", false, "print the semantic constraint catalog")
	deriveRules     = flag.Bool("derive", false, "derive state-dependent rules from the generated instance")
	dumpTo          = flag.String("dump", "", "write the generated instance as JSON to this file ('-' for stdout)")
	showSchema      = flag.Bool("schema", false, "print the logistics schema in the text format")
	optimize        = flag.Bool("optimize", false, "with -n, also optimize the workload through an Engine and print the transformed queries")
	emitTo          = flag.String("emit", "", "with -n, write the workload one query per line to this file ('-' for stdout) for sqoload -workload")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sqogen:", err)
		os.Exit(1)
	}
}

func run() error {
	sch := sqo.LogisticsSchema()
	did := false

	if *showSchema {
		did = true
		fmt.Print(sqo.RenderSchema(sch))
		fmt.Println()
	}

	if *showPaths {
		did = true
		paths := sqo.EnumerateSchemaPaths(sch)
		fmt.Printf("%d simple paths:\n", len(paths))
		for _, p := range paths {
			if len(p.Classes) == 1 {
				fmt.Printf("  %s\n", p.Classes[0])
				continue
			}
			var sb strings.Builder
			for i, c := range p.Classes {
				if i > 0 {
					fmt.Fprintf(&sb, " -[%s]- ", p.Rels[i-1])
				}
				sb.WriteString(c)
			}
			fmt.Printf("  %s\n", sb.String())
		}
		fmt.Println()
	}

	if *showConstraints {
		did = true
		cat := sqo.LogisticsConstraints()
		fmt.Printf("%d semantic constraints:\n", cat.Len())
		for _, c := range cat.All() {
			fmt.Printf("  [%s] %s\n", c.Kind(), c)
			if c.Doc != "" {
				fmt.Printf("        %s\n", c.Doc)
			}
		}
		fmt.Println()
	}

	if *n > 0 || *showStats || *deriveRules || *dumpTo != "" {
		cfg, err := dbConfig(*dbName)
		if err != nil {
			return err
		}
		db, err := sqo.GenerateDatabase(cfg)
		if err != nil {
			return err
		}
		if *showStats {
			did = true
			printStats(db)
		}
		if *dumpTo != "" {
			did = true
			data, err := sqo.DumpDatabase(db)
			if err != nil {
				return err
			}
			if *dumpTo == "-" {
				if _, err := os.Stdout.Write(data); err != nil {
					return err
				}
			} else if err := os.WriteFile(*dumpTo, data, 0o644); err != nil {
				return err
			}
		}
		if *deriveRules {
			did = true
			derived, err := sqo.DeriveRules(db, sqo.DeriveOptions{Bounds: true})
			if err != nil {
				return err
			}
			fmt.Printf("%d state-dependent rules derived from %s:\n", derived.Len(), cfg.Name)
			for _, c := range derived.All() {
				fmt.Printf("  [%s] %s\n", c.Kind(), c)
			}
			fmt.Println()
		}
		if *n > 0 {
			did = true
			gen := sqo.NewWorkloadGenerator(db, sqo.LogisticsConstraints(), sqo.WorkloadOptions{Seed: *seed})
			queries, err := gen.Workload(*n)
			if err != nil {
				return err
			}
			if *emitTo != "" {
				if *optimize {
					return fmt.Errorf("-emit writes the raw workload for sqoload to replay; it conflicts with -optimize")
				}
				var sb strings.Builder
				fmt.Fprintf(&sb, "# %d workload queries (seed %d, %s)\n", len(queries), *seed, cfg.Name)
				for _, q := range queries {
					sb.WriteString(q.String())
					sb.WriteByte('\n')
				}
				if *emitTo == "-" {
					if _, err := os.Stdout.WriteString(sb.String()); err != nil {
						return err
					}
				} else if err := os.WriteFile(*emitTo, []byte(sb.String()), 0o644); err != nil {
					return err
				}
				return nil
			}
			fmt.Printf("%d workload queries (seed %d, %s):\n", len(queries), *seed, cfg.Name)
			if *optimize {
				eng, err := sqo.NewEngine(sch,
					sqo.WithCatalog(sqo.LogisticsConstraints()),
					sqo.WithCostModel(sqo.NewCostModel(sch, db.Analyze(), sqo.DefaultWeights)))
				if err != nil {
					return err
				}
				results, err := eng.OptimizeBatch(context.Background(), queries)
				if err != nil {
					return err
				}
				for i, q := range queries {
					fmt.Printf("  q%02d %s\n", i, q)
					fmt.Printf("   -> %s (%d transformations)\n",
						results[i].Optimized, results[i].Stats.Fires)
				}
			} else {
				for i, q := range queries {
					fmt.Printf("  q%02d %s\n", i, q)
				}
			}
			fmt.Println()
		}
	}

	if !did {
		flag.Usage()
	}
	return nil
}

func printStats(db *sqo.Database) {
	st := db.Analyze()
	var classes []string
	for cl := range st.Classes {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	fmt.Println("class statistics:")
	for _, cl := range classes {
		cs := st.Classes[cl]
		fmt.Printf("  %-10s card=%4d pages=%3d\n", cl, cs.Card, cs.Pages)
		var attrs []string
		for a := range cs.Attrs {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		for _, a := range attrs {
			as := cs.Attrs[a]
			idx := " "
			if db.HasIndex(cl, a) {
				idx = "*"
			}
			fmt.Printf("    %s %-14s distinct=%4d", idx, a, as.Distinct)
			if as.HasRange {
				fmt.Printf(" range=[%s, %s]", as.Min, as.Max)
			}
			fmt.Println()
		}
	}
	var rels []string
	for rn := range st.Rels {
		rels = append(rels, rn)
	}
	sort.Strings(rels)
	fmt.Println("relationship statistics:")
	for _, rn := range rels {
		rs := st.Rels[rn]
		fmt.Printf("  %-10s links=%5d", rn, rs.Links)
		var ends []string
		for cl := range rs.Fanout {
			ends = append(ends, cl)
		}
		sort.Strings(ends)
		for _, cl := range ends {
			fmt.Printf("  fanout(%s)=%.2f", cl, rs.Fanout[cl])
		}
		fmt.Println()
	}
	fmt.Println()
}

func dbConfig(name string) (sqo.DBConfig, error) {
	for _, cfg := range sqo.DBConfigs() {
		if strings.EqualFold(cfg.Name, name) {
			return cfg, nil
		}
	}
	return sqo.DBConfig{}, fmt.Errorf("unknown database %q (want DB1..DB4)", name)
}
