package exec

import (
	"context"
	"fmt"
	"slices"
	"testing"

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

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.NewBuilder().
		Class("supplier",
			schema.Attribute{Name: "name", Type: value.KindString, Indexed: true}).
		Class("cargo",
			schema.Attribute{Name: "desc", Type: value.KindString},
			schema.Attribute{Name: "quantity", Type: value.KindInt}).
		Relationship("supplies", "supplier", "cargo", schema.OneToMany).
		MustBuild()
}

// loadDB builds a two-supplier world: SFI supplies two frozen-food cargos,
// ACME supplies one steel cargo.
func loadDB(t *testing.T) *storage.Database {
	t.Helper()
	db := storage.NewDatabase(testSchema(t))
	ins := func(class string, vals map[string]value.Value) storage.OID {
		oid, err := db.Insert(class, vals)
		if err != nil {
			t.Fatalf("Insert(%s): %v", class, err)
		}
		return oid
	}
	link := func(rel string, a, b storage.OID) {
		if err := db.Link(rel, a, b); err != nil {
			t.Fatalf("Link(%s): %v", rel, err)
		}
	}
	sfi := ins("supplier", map[string]value.Value{"name": value.String("SFI")})
	acme := ins("supplier", map[string]value.Value{"name": value.String("ACME")})
	c0 := ins("cargo", map[string]value.Value{"desc": value.String("frozen food"), "quantity": value.Int(10)})
	c1 := ins("cargo", map[string]value.Value{"desc": value.String("steel"), "quantity": value.Int(50)})
	c2 := ins("cargo", map[string]value.Value{"desc": value.String("frozen food"), "quantity": value.Int(20)})
	link("supplies", sfi, c0)
	link("supplies", acme, c1)
	link("supplies", sfi, c2)
	return db
}

// TestIndexPushDown pins the physical work of an indexed point query: one
// probe, one fetch, no pages — the push-down the paper's index introduction
// exists to reach.
func TestIndexPushDown(t *testing.T) {
	x := New(loadDB(t))
	q := query.New("supplier").
		AddProject("supplier", "name").
		AddSelect(predicate.Eq("supplier", "name", value.String("SFI")))
	res, err := x.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Steps[0].Access != engine.AccessIndex {
		t.Fatalf("plan = %v, want index seed", res.Plan)
	}
	if got := res.Canonical(); !slices.Equal(got, []string{`"SFI"`}) {
		t.Fatalf("rows = %v", got)
	}
	m := res.Meter
	if m.IndexProbes != 1 || m.ObjectFetches != 1 || m.PagesScanned != 0 {
		t.Errorf("meter = %+v, want exactly 1 probe + 1 fetch, 0 pages", m)
	}
	if res.TuplesScanned != 1 {
		t.Errorf("TuplesScanned = %d, want 1", res.TuplesScanned)
	}
}

// TestEarlyFilterScan pins a full-extent scan with a pushed-down filter:
// every instance is examined (and counted) exactly once, every instance pays
// exactly one predicate evaluation, and only the survivors become rows.
func TestEarlyFilterScan(t *testing.T) {
	db := loadDB(t)
	x := New(db)
	q := query.New("cargo").
		AddProject("cargo", "quantity").
		AddSelect(predicate.Eq("cargo", "desc", value.String("frozen food")))
	res, err := x.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Steps[0].Access != engine.AccessScan {
		t.Fatalf("plan = %v, want scan seed", res.Plan)
	}
	if got := res.Canonical(); !slices.Equal(got, []string{"10", "20"}) {
		t.Fatalf("rows = %v", got)
	}
	m := res.Meter
	if res.TuplesScanned != 3 || m.PredEvals != 3 {
		t.Errorf("scanned %d tuples, %d pred evals; want 3 and 3", res.TuplesScanned, m.PredEvals)
	}
	if m.PagesScanned != int64(db.Pages("cargo")) {
		t.Errorf("PagesScanned = %d, want %d", m.PagesScanned, db.Pages("cargo"))
	}
	if m.ObjectFetches != 0 || m.IndexProbes != 0 {
		t.Errorf("meter = %+v, scan should neither probe nor fetch", m)
	}
}

// TestTraverseMeter pins a two-class path: index seed (1 probe, 1 fetch),
// then one link traversal fanning out to the supplier's two cargos (2 more
// fetches). TuplesScanned counts all three examined instances.
func TestTraverseMeter(t *testing.T) {
	x := New(loadDB(t))
	q := query.New("supplier", "cargo").
		AddRelationship("supplies").
		AddProject("cargo", "desc").
		AddSelect(predicate.Eq("supplier", "name", value.String("SFI")))
	res, err := x.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Canonical(); !slices.Equal(got, []string{`"frozen food"`, `"frozen food"`}) {
		t.Fatalf("rows = %v", got)
	}
	m := res.Meter
	if m.IndexProbes != 1 || m.LinkTraversals != 1 || m.ObjectFetches != 3 {
		t.Errorf("meter = %+v, want 1 probe, 1 traversal, 3 fetches", m)
	}
	if res.TuplesScanned != 3 {
		t.Errorf("TuplesScanned = %d, want 3 (1 supplier + 2 cargos)", res.TuplesScanned)
	}
}

// reference evaluates q by brute force, without the planner or the run
// loop: it binds each query class, in q.Classes order, to every instance of
// its extent, keeps a binding when every select, join and relationship link
// among the bound classes holds (links checked through Traverse), and
// projects the survivors. It returns the canonical rows.
func reference(t *testing.T, db *storage.Database, q *query.Query) []string {
	t.Helper()
	pos := map[string]int{}
	extents := make([][]storage.Instance, len(q.Classes))
	for i, cl := range q.Classes {
		pos[cl] = i
		if err := db.Scan(cl, nil, func(inst storage.Instance) bool {
			extents[i] = append(extents[i], inst)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	val := func(b []storage.Instance, a predicate.AttrRef) value.Value {
		ai, err := db.AttrIndexOf(a.Class, a.Attr)
		if err != nil {
			t.Fatal(err)
		}
		return b[pos[a.Class]].Values[ai]
	}
	// checks[d] holds the conditions whose classes are all bound once the
	// class at position d is.
	checks := make([][]func([]storage.Instance) bool, len(q.Classes))
	add := func(a, b string, c func([]storage.Instance) bool) {
		d := max(pos[a], pos[b])
		checks[d] = append(checks[d], c)
	}
	for _, p := range q.Selects {
		add(p.Left.Class, p.Left.Class, func(b []storage.Instance) bool { return p.EvalSel(val(b, p.Left)) })
	}
	for _, j := range q.Joins {
		add(j.Left.Class, j.RightAttr.Class, func(b []storage.Instance) bool {
			return j.EvalJoin(val(b, j.Left), val(b, j.RightAttr))
		})
	}
	for _, rn := range q.Relationships {
		r := db.Schema().Relationship(rn)
		add(r.Source, r.Target, func(b []storage.Instance) bool {
			oids, err := db.Traverse(rn, r.Source, b[pos[r.Source]].OID, nil)
			if err != nil {
				t.Fatal(err)
			}
			return slices.Contains(oids, b[pos[r.Target]].OID)
		})
	}
	var res engine.Result
	b := make([]storage.Instance, len(q.Classes))
	var bind func(d int)
	bind = func(d int) {
		if d == len(q.Classes) {
			row := engine.Row{}
			for _, a := range q.Project {
				row.Values = append(row.Values, val(b, a))
			}
			res.Rows = append(res.Rows, row)
			return
		}
	next:
		for _, inst := range extents[d] {
			b[d] = inst
			for _, c := range checks[d] {
				if !c(b) {
					continue next
				}
			}
			bind(d + 1)
		}
	}
	bind(0)
	return res.Canonical()
}

// matchReference runs q under both planning policies — engine.Plan through
// engine.Executor, engine.PlanExamined through this package — and requires
// each run's rows to equal the brute-force reference's.
func matchReference(t *testing.T, db *storage.Database, x *Executor, eng *engine.Executor, q *query.Query) {
	t.Helper()
	want := reference(t, db, q)
	examined, err := x.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("PlanExamined run of %s: %v", q, err)
	}
	cost, err := eng.Execute(q)
	if err != nil {
		t.Fatalf("Plan run of %s: %v", q, err)
	}
	if got := examined.Canonical(); !slices.Equal(got, want) {
		t.Errorf("%s under PlanExamined: rows %v, reference %v", q, got, want)
	}
	if got := cost.Canonical(); !slices.Equal(got, want) {
		t.Errorf("%s under Plan: rows %v, reference %v", q, got, want)
	}
}

// TestRowsMatchReference checks the plan runner, and the planner that feeds
// it, against the brute-force reference: every query shape the little world
// supports, then DB1's 40-query pathgen workload raw and optimized.
func TestRowsMatchReference(t *testing.T) {
	db := loadDB(t)
	queries := []*query.Query{
		query.New("cargo").AddProject("cargo", "desc"),
		query.New("cargo").AddProject("cargo", "desc").
			AddSelect(predicate.Sel("cargo", "quantity", predicate.GE, value.Int(20))),
		query.New("supplier", "cargo").AddRelationship("supplies").
			AddProject("supplier", "name").AddProject("cargo", "quantity").
			AddSelect(predicate.Eq("cargo", "desc", value.String("frozen food"))),
		query.New("supplier", "cargo").AddRelationship("supplies").
			AddProject("cargo", "desc").
			AddSelect(predicate.Eq("supplier", "name", value.String("ACME"))).
			AddSelect(predicate.Sel("cargo", "quantity", predicate.GT, value.Int(10))),
	}
	for _, q := range queries {
		matchReference(t, db, New(db), engine.New(db), q)
	}

	db1, err := datagen.Generate(datagen.DB1())
	if err != nil {
		t.Fatal(err)
	}
	cat := datagen.Constraints()
	workload, err := pathgen.NewGenerator(db1, cat, pathgen.Options{Seed: 41}).Workload(40)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.NewOptimizer(db1.Schema(), core.CatalogSource{Catalog: cat},
		core.Options{Cost: costmodel.New(db1.Schema(), db1.Analyze(), engine.DefaultWeights)})
	x, eng := New(db1), engine.New(db1)
	for _, q := range workload {
		res, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		matchReference(t, db1, x, eng, q)
		matchReference(t, db1, x, eng, res.Optimized)
	}
}

// TestEmptyProven: a proven-empty optimization short-circuits with zero
// physical work; a nil result is an error, not a panic.
func TestEmptyProven(t *testing.T) {
	x := New(loadDB(t))
	res, err := x.ExecuteOptimized(context.Background(), &core.Result{EmptyResult: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.EmptyProven || len(res.Rows) != 0 {
		t.Errorf("want empty proven result, got %+v", res)
	}
	if res.Meter != (storage.Meter{}) || res.TuplesScanned != 0 {
		t.Errorf("proven-empty execution did physical work: %+v", res.Meter)
	}
	if _, err := x.ExecuteOptimized(context.Background(), nil); err == nil {
		t.Error("nil optimization result should error")
	}
}

// TestExecuteOptimizedRuns: a non-empty optimization result executes its
// transformed query and carries the optimization along.
func TestExecuteOptimizedRuns(t *testing.T) {
	x := New(loadDB(t))
	q := query.New("cargo").AddProject("cargo", "desc")
	res := &core.Result{Original: q, Optimized: q}
	out, err := x.ExecuteOptimized(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	if out.Opt != res {
		t.Error("execution should carry its optimization")
	}
	if len(out.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(out.Rows))
	}
}

// TestCancellation: a canceled context stops a long scan mid-extent. The
// run loop checks the context every 1024 examined instances, so the extent
// must be bigger than that.
func TestCancellation(t *testing.T) {
	db := storage.NewDatabase(testSchema(t))
	for i := 0; i < 3000; i++ {
		if _, err := db.Insert("cargo", map[string]value.Value{
			"desc": value.String("bulk"), "quantity": value.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	x := New(db)
	q := query.New("cargo").AddProject("cargo", "quantity").
		AddSelect(predicate.Eq("cargo", "desc", value.String("none")))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.Execute(ctx, q); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// The same query completes on a live context.
	if _, err := x.Execute(context.Background(), q); err != nil {
		t.Errorf("live context: %v", err)
	}
}

// TestCompileErrors: plans referencing unknown attributes or unplanned
// classes are rejected before any I/O.
func TestCompileErrors(t *testing.T) {
	x := New(loadDB(t))
	q := query.New("cargo").AddProject("cargo", "ghost")
	if _, err := x.Execute(context.Background(), q); err == nil {
		t.Error("unknown projection attribute should error")
	}
}

// TestDeterminism: repeated executions return identical canonical rows and
// identical meters.
func TestDeterminism(t *testing.T) {
	x := New(loadDB(t))
	q := query.New("supplier", "cargo").AddRelationship("supplies").
		AddProject("supplier", "name").AddProject("cargo", "desc")
	var rows []string
	var meter storage.Meter
	for i := 0; i < 5; i++ {
		res, err := x.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			rows, meter = res.Canonical(), res.Meter
			continue
		}
		if !slices.Equal(rows, res.Canonical()) || meter != res.Meter {
			t.Fatalf("run %d diverged", i)
		}
	}
	_ = fmt.Sprintf("%v", meter)
}
