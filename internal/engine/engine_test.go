package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"sqo/internal/constraint"
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
		Class("vehicle",
			schema.Attribute{Name: "desc", Type: value.KindString},
			schema.Attribute{Name: "class", Type: value.KindInt}).
		Class("driver",
			schema.Attribute{Name: "name", Type: value.KindString},
			schema.Attribute{Name: "licenseClass", Type: value.KindInt}).
		Relationship("supplies", "supplier", "cargo", schema.OneToMany).
		Relationship("collects", "vehicle", "cargo", schema.OneToMany).
		Relationship("drives", "driver", "vehicle", schema.ManyToMany).
		MustBuild()
}

// loadDB builds the little logistics world used across the tests:
//
//	suppliers: SFI, ACME
//	cargos:    frozen food(q=10, SFI, truck0), steel(q=50, ACME, truck1),
//	           frozen food(q=20, SFI, truck0)
//	vehicles:  refrigerated truck(class 3), flatbed(class 5)
//	drivers:   amy(license 5 drives both), bob(license 3 drives truck0)
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
	v0 := ins("vehicle", map[string]value.Value{"desc": value.String("refrigerated truck"), "class": value.Int(3)})
	v1 := ins("vehicle", map[string]value.Value{"desc": value.String("flatbed"), "class": value.Int(5)})
	d0 := ins("driver", map[string]value.Value{"name": value.String("amy"), "licenseClass": value.Int(5)})
	d1 := ins("driver", map[string]value.Value{"name": value.String("bob"), "licenseClass": value.Int(3)})
	link("supplies", sfi, c0)
	link("supplies", acme, c1)
	link("supplies", sfi, c2)
	link("collects", v0, c0)
	link("collects", v1, c1)
	link("collects", v0, c2)
	link("drives", d0, v0)
	link("drives", d0, v1)
	link("drives", d1, v0)
	return db
}

func TestSingleClassScan(t *testing.T) {
	db := loadDB(t)
	e := New(db)
	q := query.New("cargo").
		AddProject("cargo", "desc").
		AddSelect(predicate.Eq("cargo", "desc", value.String("frozen food")))
	res, err := e.Execute(q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if got := res.Canonical(); !reflect.DeepEqual(got, []string{`"frozen food"`, `"frozen food"`}) {
		t.Errorf("rows = %v", got)
	}
	if res.Meter.PagesScanned == 0 {
		t.Error("scan should charge pages")
	}
	if res.Meter.PredEvals != 3 {
		t.Errorf("PredEvals = %d, want one per cargo", res.Meter.PredEvals)
	}
	if res.Plan.Steps[0].Access != AccessScan {
		t.Errorf("plan should scan, got %v", res.Plan.Steps[0].Access)
	}
}

func TestIndexSeed(t *testing.T) {
	db := loadDB(t)
	e := New(db)
	q := query.New("supplier").
		AddProject("supplier", "name").
		AddSelect(predicate.Eq("supplier", "name", value.String("SFI")))
	res, err := e.Execute(q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Plan.Steps[0].Access != AccessIndex {
		t.Fatalf("plan should use the name index: %s", res.Plan)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[0].Str() != "SFI" {
		t.Errorf("rows = %v", res.Canonical())
	}
	if res.Meter.IndexProbes != 1 || res.Meter.PagesScanned != 0 {
		t.Errorf("meter = %+v, want index probe and no scan", res.Meter)
	}
	// The index served the predicate: no residual filter evals.
	if res.Meter.PredEvals != 0 {
		t.Errorf("PredEvals = %d, want 0", res.Meter.PredEvals)
	}
}

// TestPaperQueryExecution runs the Figure 2.3 original and optimized queries
// and checks they return identical rows with the optimized one cheaper.
func TestPaperQueryExecution(t *testing.T) {
	db := loadDB(t)
	e := New(db)
	original := query.New("supplier", "cargo", "vehicle").
		AddProject("vehicle", "vehicle#").
		AddProject("cargo", "desc").
		AddProject("cargo", "quantity").
		AddSelect(predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))).
		AddSelect(predicate.Eq("supplier", "name", value.String("SFI"))).
		AddRelationship("collects").
		AddRelationship("supplies")
	// The schema here has no vehicle# attribute; project desc instead.
	original.Project[0] = predicate.AttrRef{Class: "vehicle", Attr: "desc"}

	optimized := query.New("cargo", "vehicle").
		AddProject("vehicle", "desc").
		AddProject("cargo", "desc").
		AddProject("cargo", "quantity").
		AddSelect(predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))).
		AddSelect(predicate.Eq("cargo", "desc", value.String("frozen food"))).
		AddRelationship("collects")

	ro, err := e.Execute(original)
	if err != nil {
		t.Fatalf("Execute(original): %v", err)
	}
	rz, err := e.Execute(optimized)
	if err != nil {
		t.Fatalf("Execute(optimized): %v", err)
	}
	if !reflect.DeepEqual(ro.Canonical(), rz.Canonical()) {
		t.Errorf("results differ:\noriginal:  %v\noptimized: %v", ro.Canonical(), rz.Canonical())
	}
	if len(ro.Rows) != 2 {
		t.Errorf("expected the two frozen-food cargos, got %v", ro.Canonical())
	}
	wo, wz := ro.Cost(DefaultWeights), rz.Cost(DefaultWeights)
	if wz >= wo {
		t.Errorf("optimized cost %.2f should beat original %.2f", wz, wo)
	}
}

func TestJoinPredicate(t *testing.T) {
	db := loadDB(t)
	e := New(db)
	q := query.New("driver", "vehicle").
		AddProject("driver", "name").
		AddProject("vehicle", "desc").
		AddJoin(predicate.Join("driver", "licenseClass", predicate.GE, "vehicle", "class")).
		AddRelationship("drives")
	res, err := e.Execute(q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// amy(5) drives truck0(3) and flatbed(5): both qualify.
	// bob(3) drives truck0(3): qualifies. 3 rows total.
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v, want 3", res.Canonical())
	}
	// Without the join predicate all 3 drive-links qualify too; tighten it.
	q2 := query.New("driver", "vehicle").
		AddProject("driver", "name").
		AddJoin(predicate.Join("driver", "licenseClass", predicate.GT, "vehicle", "class")).
		AddRelationship("drives")
	res2, err := e.Execute(q2)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res2.Rows) != 1 || res2.Rows[0].Values[0].Str() != "amy" {
		t.Errorf("strict join rows = %v, want just amy>truck0", res2.Canonical())
	}
}

func TestThreeWayPath(t *testing.T) {
	db := loadDB(t)
	e := New(db)
	q := query.New("supplier", "cargo", "vehicle").
		AddProject("supplier", "name").
		AddProject("vehicle", "desc").
		AddSelect(predicate.Eq("cargo", "desc", value.String("steel"))).
		AddRelationship("supplies").
		AddRelationship("collects")
	res, err := e.Execute(q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v, want 1", res.Canonical())
	}
	got := res.Canonical()[0]
	if !strings.Contains(got, "ACME") || !strings.Contains(got, "flatbed") {
		t.Errorf("row = %q", got)
	}
}

func TestEmptyResult(t *testing.T) {
	db := loadDB(t)
	e := New(db)
	q := query.New("cargo", "vehicle").
		AddProject("cargo", "desc").
		AddSelect(predicate.Eq("cargo", "desc", value.String("unobtainium"))).
		AddSelect(predicate.Eq("vehicle", "desc", value.String("flatbed"))).
		AddRelationship("collects")
	res, err := e.Execute(q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v, want none", res.Canonical())
	}
}

func TestPlanSeedsOnMostSelectiveClass(t *testing.T) {
	db := loadDB(t)
	e := New(db)
	// supplier.name = "SFI" is indexed and selective: the plan must seed
	// there rather than scanning cargo.
	q := query.New("supplier", "cargo").
		AddProject("cargo", "desc").
		AddSelect(predicate.Eq("supplier", "name", value.String("SFI"))).
		AddRelationship("supplies")
	plan, err := e.Plan(q)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if plan.Steps[0].Class != "supplier" || plan.Steps[0].Access != AccessIndex {
		t.Errorf("plan = %s", plan)
	}
	if plan.Steps[1].Access != AccessTraverse || plan.Steps[1].ViaRel != "supplies" {
		t.Errorf("second step should traverse supplies: %s", plan)
	}
}

func TestPlanErrors(t *testing.T) {
	db := loadDB(t)
	e := New(db)
	if _, err := e.Plan(&query.Query{}); err == nil {
		t.Error("empty query should fail")
	}
	disconnected := query.New("supplier", "vehicle") // no relationship
	if _, err := e.Plan(disconnected); err == nil {
		t.Error("disconnected query should fail")
	}
	badRel := query.New("supplier", "cargo").AddRelationship("ghost")
	if _, err := e.Plan(badRel); err == nil {
		t.Error("unknown relationship should fail")
	}
}

func TestPlanString(t *testing.T) {
	db := loadDB(t)
	e := New(db)
	q := query.New("supplier", "cargo").
		AddProject("cargo", "desc").
		AddSelect(predicate.Eq("supplier", "name", value.String("SFI"))).
		AddSelect(predicate.Eq("cargo", "desc", value.String("frozen food"))).
		AddRelationship("supplies")
	plan, err := e.Plan(q)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	s := plan.String()
	for _, want := range []string{"index supplier", "traverse supplier -[supplies]-> cargo", "filter"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string %q missing %q", s, want)
		}
	}
}

// TestPlanChecksClosingLink: a query relationship no traversal of the plan
// uses (here the second of two relationships between the same classes)
// closes a cycle. Both planning policies check it on the step binding its
// second end, by one metered traversal per binding from its first end.
func TestPlanChecksClosingLink(t *testing.T) {
	sch := schema.NewBuilder().
		Class("a", schema.Attribute{Name: "n", Type: value.KindInt}).
		Class("b", schema.Attribute{Name: "n", Type: value.KindInt}).
		Relationship("r1", "a", "b", schema.ManyToMany).
		Relationship("r2", "a", "b", schema.ManyToMany).
		MustBuild()
	db := storage.NewDatabase(sch)
	var oids [2][2]storage.OID
	for i, cl := range []string{"a", "b"} {
		for n := range 2 {
			oid, err := db.Insert(cl, map[string]value.Value{"n": value.Int(int64(n))})
			if err != nil {
				t.Fatal(err)
			}
			oids[i][n] = oid
		}
	}
	// r1 links (a0,b0), (a0,b1), (a1,b1); r2 links (a0,b0), (a1,b0). Only
	// (a0,b0) is linked by both.
	for _, l := range []struct {
		rel  string
		a, b int
	}{{"r1", 0, 0}, {"r1", 0, 1}, {"r1", 1, 1}, {"r2", 0, 0}, {"r2", 1, 0}} {
		if err := db.Link(l.rel, oids[0][l.a], oids[1][l.b]); err != nil {
			t.Fatal(err)
		}
	}
	e := New(db)
	q := query.New("a", "b").AddRelationship("r1").AddRelationship("r2").
		AddProject("a", "n").AddProject("b", "n")
	for name, planOf := range map[string]func(*query.Query) (*Plan, error){"Plan": e.Plan, "PlanExamined": e.PlanExamined} {
		plan, err := planOf(q)
		if err != nil {
			t.Fatal(err)
		}
		last := plan.Steps[len(plan.Steps)-1]
		if len(last.Links) != 1 || last.Links[0].ViaRel != "r2" || last.Links[0].FromClass != plan.Steps[0].Class ||
			!strings.Contains(plan.String(), " link(") {
			t.Fatalf("%s: plan %s should check r2 as a link on its last step", name, plan)
		}
		res, err := e.Run(q, plan)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Canonical(); len(got) != 1 || got[0] != "0|0" {
			t.Errorf("%s: rows %v, want [0|0]", name, got)
		}
		// Two seed traversals reach three bindings; each pays one link check.
		if res.Meter.LinkTraversals != 5 {
			t.Errorf("%s: %d link traversals, want 5", name, res.Meter.LinkTraversals)
		}
	}
}

func TestAccessKindString(t *testing.T) {
	if AccessScan.String() != "scan" || AccessIndex.String() != "index" ||
		AccessTraverse.String() != "traverse" || AccessKind(9).String() != "access(?)" {
		t.Error("AccessKind.String broken")
	}
}

func TestCostWeights(t *testing.T) {
	m := storage.Meter{PagesScanned: 2, ObjectFetches: 5, IndexProbes: 1, LinkTraversals: 10, PredEvals: 100}
	w := CostWeights{Page: 1, ObjectFetch: 0.5, IndexProbe: 0.25, LinkTraversal: 0.1, PredEval: 0.01}
	want := 2.0 + 2.5 + 0.25 + 1.0 + 1.0
	if got := w.Cost(m); got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestCheckConstraintHolds(t *testing.T) {
	db := loadDB(t)
	c1 := constraint.New("c1",
		[]predicate.Predicate{predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))},
		[]string{"collects"},
		predicate.Eq("cargo", "desc", value.String("frozen food")))
	n, err := CheckConstraint(db, c1)
	if err != nil {
		t.Fatalf("CheckConstraint: %v", err)
	}
	if n != 0 {
		t.Errorf("c1 should hold on the test data, got %d violations", n)
	}
	// c3-like join consequent.
	c3 := constraint.New("c3", nil, []string{"drives"},
		predicate.Join("driver", "licenseClass", predicate.GE, "vehicle", "class"))
	n, err = CheckConstraint(db, c3)
	if err != nil {
		t.Fatalf("CheckConstraint(c3): %v", err)
	}
	// amy(5)>=truck0(3) ok, amy(5)>=flatbed(5) ok, bob(3)>=truck0(3) ok.
	if n != 0 {
		t.Errorf("c3 should hold, got %d violations", n)
	}
}

func TestCheckConstraintViolated(t *testing.T) {
	db := loadDB(t)
	bad := constraint.New("bad",
		[]predicate.Predicate{predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))},
		[]string{"collects"},
		predicate.Eq("cargo", "desc", value.String("steel")))
	n, err := CheckConstraint(db, bad)
	if err != nil {
		t.Fatalf("CheckConstraint: %v", err)
	}
	if n != 2 {
		t.Errorf("violations = %d, want 2 (both frozen-food collects pairs)", n)
	}
	cat := constraint.MustCatalog(bad)
	id, err := CheckCatalog(db, cat)
	if err != nil {
		t.Fatalf("CheckCatalog: %v", err)
	}
	if id != "bad" {
		t.Errorf("CheckCatalog = %q, want bad", id)
	}
}

func TestCheckCatalogAllHold(t *testing.T) {
	db := loadDB(t)
	cat := constraint.MustCatalog(
		constraint.New("c1",
			[]predicate.Predicate{predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))},
			[]string{"collects"},
			predicate.Eq("cargo", "desc", value.String("frozen food"))),
		constraint.New("c2",
			[]predicate.Predicate{predicate.Eq("cargo", "desc", value.String("frozen food"))},
			[]string{"supplies"},
			predicate.Eq("supplier", "name", value.String("SFI"))),
	)
	id, err := CheckCatalog(db, cat)
	if err != nil {
		t.Fatalf("CheckCatalog: %v", err)
	}
	if id != "" {
		t.Errorf("all constraints hold; got violation in %q", id)
	}
}

func TestRunRejectsBadPlans(t *testing.T) {
	db := loadDB(t)
	e := New(db)
	q := query.New("supplier", "cargo").AddRelationship("supplies")
	// Traverse from a class bound later.
	bad := &Plan{Steps: []Step{
		{Class: "cargo", Access: AccessTraverse, ViaRel: "supplies", FromClass: "supplier"},
		{Class: "supplier", Access: AccessScan},
	}}
	if _, err := e.Run(q, bad); err == nil {
		t.Error("plan traversing from unbound class should fail")
	}
	// Seed appearing mid-plan.
	bad2 := &Plan{Steps: []Step{
		{Class: "supplier", Access: AccessScan},
		{Class: "cargo", Access: AccessScan},
	}}
	if _, err := e.Run(q, bad2); err == nil {
		t.Error("second seed step should fail")
	}
}

func TestExecutionDeterminism(t *testing.T) {
	db := loadDB(t)
	e := New(db)
	q := query.New("supplier", "cargo", "vehicle").
		AddProject("supplier", "name").
		AddProject("cargo", "quantity").
		AddSelect(predicate.Sel("cargo", "quantity", predicate.LE, value.Int(20))).
		AddRelationship("supplies").
		AddRelationship("collects")
	first, err := e.Execute(q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	for i := 0; i < 5; i++ {
		again, err := e.Execute(q)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if !reflect.DeepEqual(first.Canonical(), again.Canonical()) || first.Meter != again.Meter {
			t.Fatalf("execution not deterministic on run %d", i)
		}
	}
}

// TestPlanExaminedIgnoresUntrustedRanges: the serving profile must not let a
// non-indexed range filter lure the seed away from an equality-filtered
// class. vehicle.class <= 3 interpolates to near-zero selectivity, but
// without a histogram that estimate is a guess — PlanExamined treats it as
// non-reducing and seeds at the equality filter instead.
func TestPlanExaminedIgnoresUntrustedRanges(t *testing.T) {
	db := loadDB(t)
	e := New(db)
	q := query.New("driver", "vehicle").
		AddProject("driver", "name").
		AddProject("vehicle", "desc").
		AddRelationship("drives").
		AddSelect(predicate.Eq("driver", "licenseClass", value.Int(3))).
		AddSelect(predicate.Sel("vehicle", "class", predicate.LE, value.Int(3)))
	plan, err := e.PlanExamined(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Class != "driver" {
		t.Errorf("PlanExamined seeded at %s, want driver:\n%v", plan.Steps[0].Class, plan)
	}
	// The plan still executes correctly.
	res, err := e.Run(q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v, want bob/refrigerated truck", res.Canonical())
	}
}

// TestPlanExaminedTrustsIndexes: an index-backed predicate confines the
// instances physically examined, so the serving profile keeps using it.
func TestPlanExaminedTrustsIndexes(t *testing.T) {
	e := New(loadDB(t))
	q := query.New("supplier", "cargo").
		AddProject("cargo", "desc").
		AddRelationship("supplies").
		AddSelect(predicate.Eq("supplier", "name", value.String("SFI")))
	plan, err := e.PlanExamined(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Class != "supplier" || plan.Steps[0].Access != AccessIndex {
		t.Errorf("PlanExamined = %v, want index seed on supplier", plan)
	}
}

// TestExecuteContextCancellation: a canceled context aborts a scan larger
// than the check interval; a live context completes the same query.
func TestExecuteContextCancellation(t *testing.T) {
	db := storage.NewDatabase(testSchema(t))
	for i := 0; i < 3000; i++ {
		if _, err := db.Insert("cargo", map[string]value.Value{
			"desc": value.String("bulk"), "quantity": value.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	e := New(db)
	q := query.New("cargo").
		AddProject("cargo", "quantity").
		AddSelect(predicate.Eq("cargo", "desc", value.String("none")))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecuteContext(ctx, q); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if _, err := e.ExecuteContext(context.Background(), q); err != nil {
		t.Errorf("live context: %v", err)
	}
}
