package core

import (
	"math/rand"
	"testing"

	"sqo/internal/constraint"
	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/schema"
	"sqo/internal/symtab"
	"sqo/internal/value"
)

// keepAll retains every optional predicate; used to reproduce the paper's
// worked example, where cargo.desc = "frozen food" is kept.
type keepAll struct{}

func (keepAll) Profitable(*query.Query, predicate.Predicate) bool    { return true }
func (keepAll) ClassEliminationBeneficial(*query.Query, string) bool { return true }

// dropAll discards every optional predicate and forbids class elimination.
type dropAll struct{}

func (dropAll) Profitable(*query.Query, predicate.Predicate) bool    { return false }
func (dropAll) ClassEliminationBeneficial(*query.Query, string) bool { return false }

// paperSchema builds the Figure 2.1 classes needed by the worked example.
func paperSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.NewBuilder().
		Class("supplier",
			schema.Attribute{Name: "name", Type: value.KindString, Indexed: true},
			schema.Attribute{Name: "address", Type: value.KindString}).
		Class("cargo",
			schema.Attribute{Name: "desc", Type: value.KindString},
			schema.Attribute{Name: "quantity", Type: value.KindInt}).
		Class("vehicle",
			schema.Attribute{Name: "vehicle#", Type: value.KindString, Indexed: true},
			schema.Attribute{Name: "desc", Type: value.KindString},
			schema.Attribute{Name: "class", Type: value.KindInt}).
		Class("driver",
			schema.Attribute{Name: "name", Type: value.KindString},
			schema.Attribute{Name: "licenseClass", Type: value.KindInt},
			schema.Attribute{Name: "rank", Type: value.KindString}).
		Relationship("supplies", "supplier", "cargo", schema.OneToMany).
		Relationship("collects", "vehicle", "cargo", schema.OneToMany).
		Relationship("drives", "driver", "vehicle", schema.ManyToMany).
		MustBuild()
}

func paperC1() *constraint.Constraint {
	return constraint.New("c1",
		[]predicate.Predicate{predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))},
		[]string{"collects"},
		predicate.Eq("cargo", "desc", value.String("frozen food")))
}

func paperC2() *constraint.Constraint {
	return constraint.New("c2",
		[]predicate.Predicate{predicate.Eq("cargo", "desc", value.String("frozen food"))},
		[]string{"supplies"},
		predicate.Eq("supplier", "name", value.String("SFI")))
}

// paperQuery is the sample query of Figure 2.3.
func paperQuery() *query.Query {
	return query.New("supplier", "cargo", "vehicle").
		AddProject("vehicle", "vehicle#").
		AddProject("cargo", "desc").
		AddProject("cargo", "quantity").
		AddSelect(predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))).
		AddSelect(predicate.Eq("supplier", "name", value.String("SFI"))).
		AddRelationship("collects").
		AddRelationship("supplies")
}

func newPaperOptimizer(t *testing.T, opts Options) *Optimizer {
	t.Helper()
	s := paperSchema(t)
	cat := constraint.MustCatalog(paperC1(), paperC2())
	if err := cat.Validate(s); err != nil {
		t.Fatalf("catalog should validate: %v", err)
	}
	if opts.Cost == nil {
		opts.Cost = keepAll{}
	}
	return NewOptimizer(s, CatalogSource{Catalog: cat}, opts)
}

// TestPaperWorkedExample replays Section 3.5 end to end and checks the final
// query of Figure 2.3: supplier eliminated, supplier.name = "SFI" dropped,
// cargo.desc = "frozen food" introduced and kept.
func TestPaperWorkedExample(t *testing.T) {
	o := newPaperOptimizer(t, Options{})
	res, err := o.Optimize(paperQuery())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}

	got := res.Optimized
	if got.HasClass("supplier") {
		t.Errorf("supplier should be eliminated: %s", got)
	}
	if !got.HasClass("cargo") || !got.HasClass("vehicle") {
		t.Errorf("cargo and vehicle must remain: %s", got)
	}
	if got.HasRelationship("supplies") || !got.HasRelationship("collects") {
		t.Errorf("relationships wrong: %s", got)
	}

	wantSelects := map[string]bool{
		predicate.Eq("vehicle", "desc", value.String("refrigerated truck")).Key(): true,
		predicate.Eq("cargo", "desc", value.String("frozen food")).Key():          true,
	}
	if len(got.Selects) != 2 {
		t.Fatalf("selects = %v, want 2 predicates", got.Selects)
	}
	for _, p := range got.Selects {
		if !wantSelects[p.Key()] {
			t.Errorf("unexpected select %s", p)
		}
	}

	// Final tags per Section 3.5: p1 imperative, p2 and p3 optional.
	p1 := predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))
	p2 := predicate.Eq("supplier", "name", value.String("SFI"))
	p3 := predicate.Eq("cargo", "desc", value.String("frozen food"))
	if res.FinalTags()[p1.Key()] != TagImperative {
		t.Errorf("p1 tag = %v, want imperative", res.FinalTags()[p1.Key()])
	}
	if res.FinalTags()[p2.Key()] != TagOptional {
		t.Errorf("p2 tag = %v, want optional", res.FinalTags()[p2.Key()])
	}
	if res.FinalTags()[p3.Key()] != TagOptional {
		t.Errorf("p3 tag = %v, want optional", res.FinalTags()[p3.Key()])
	}

	// Trace: introduction via c1, then elimination via c2, then the class
	// elimination of supplier.
	var kinds []TransformKind
	var ids []string
	for _, tr := range res.Trace {
		kinds = append(kinds, tr.Kind)
		ids = append(ids, tr.Constraint)
	}
	if len(res.Trace) < 3 {
		t.Fatalf("trace too short: %v", res.Trace)
	}
	if kinds[0] != TransformIntroduction || ids[0] != "c1" {
		t.Errorf("first transformation = %v by %s, want introduction by c1", kinds[0], ids[0])
	}
	if kinds[1] != TransformElimination || ids[1] != "c2" {
		t.Errorf("second transformation = %v by %s, want elimination by c2", kinds[1], ids[1])
	}
	found := false
	for _, tr := range res.Trace {
		if tr.Kind == TransformClassElimination && tr.Class == "supplier" {
			found = true
		}
	}
	if !found {
		t.Error("class elimination of supplier missing from trace")
	}

	// Stats: C = {c1, c2}, P = {p1, p2, p3}, two fires.
	if res.Stats.RelevantConstraints != 2 {
		t.Errorf("RelevantConstraints = %d, want 2", res.Stats.RelevantConstraints)
	}
	if res.Stats.Predicates != 3 {
		t.Errorf("Predicates = %d, want 3", res.Stats.Predicates)
	}
	if res.Stats.Fires != 2 {
		t.Errorf("Fires = %d, want 2", res.Stats.Fires)
	}
	if res.Stats.Ops <= 0 || res.Stats.Duration <= 0 {
		t.Errorf("Stats not populated: %+v", res.Stats)
	}

	// The input query must be untouched.
	if !paperQuery().Equal(res.Original) {
		t.Error("Optimize mutated its input")
	}
}

func TestIntraNonIndexedConsequentBecomesRedundant(t *testing.T) {
	// c4-style intra-class constraint: driver.rank is not indexed, so
	// eliminating it marks it redundant and it vanishes from the query.
	s := paperSchema(t)
	c := constraint.New("c4", nil, nil,
		predicate.Eq("driver", "rank", value.String("research staff member")))
	o := NewOptimizer(s, CatalogSource{Catalog: constraint.MustCatalog(c)}, Options{Cost: keepAll{}})
	q := query.New("driver").
		AddProject("driver", "name").
		AddSelect(predicate.Eq("driver", "rank", value.String("research staff member")))
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(res.Optimized.Selects) != 0 {
		t.Errorf("redundant predicate should be dropped: %s", res.Optimized)
	}
	key := predicate.Eq("driver", "rank", value.String("research staff member")).Key()
	if res.FinalTags()[key] != TagRedundant {
		t.Errorf("tag = %v, want redundant", res.FinalTags()[key])
	}
}

func TestIntraIndexedConsequentBecomesOptional(t *testing.T) {
	// Intra-class constraint whose consequent is on an indexed attribute:
	// Table 3.1 says optional, and the (keepAll) cost model retains it.
	s := schema.NewBuilder().
		Class("emp",
			schema.Attribute{Name: "rank", Type: value.KindString},
			schema.Attribute{Name: "grade", Type: value.KindInt, Indexed: true}).
		MustBuild()
	c := constraint.New("cg",
		[]predicate.Predicate{predicate.Eq("emp", "rank", value.String("mgr"))},
		nil,
		predicate.Eq("emp", "grade", value.Int(9)))
	o := NewOptimizer(s, CatalogSource{Catalog: constraint.MustCatalog(c)}, Options{Cost: keepAll{}})

	// Case 1: consequent in query -> elimination lowers it to optional.
	q := query.New("emp").
		AddProject("emp", "rank").
		AddSelect(predicate.Eq("emp", "rank", value.String("mgr"))).
		AddSelect(predicate.Eq("emp", "grade", value.Int(9)))
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	key := predicate.Eq("emp", "grade", value.Int(9)).Key()
	if res.FinalTags()[key] != TagOptional {
		t.Errorf("tag = %v, want optional (indexed intra consequent)", res.FinalTags()[key])
	}
	if len(res.Optimized.Selects) != 2 {
		t.Errorf("optional indexed predicate should be kept: %s", res.Optimized)
	}

	// Case 2: consequent absent -> index introduction brings it in.
	q2 := query.New("emp").
		AddProject("emp", "rank").
		AddSelect(predicate.Eq("emp", "rank", value.String("mgr")))
	res2, err := o.Optimize(q2)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res2.FinalTags()[key] != TagOptional {
		t.Errorf("introduced tag = %v, want optional", res2.FinalTags()[key])
	}
	if len(res2.Optimized.Selects) != 2 {
		t.Errorf("index introduction should add the predicate: %s", res2.Optimized)
	}
}

func TestIntraNonIndexedIntroductionStaysOut(t *testing.T) {
	// Table 3.2: intra-class introduction of a non-indexed predicate is
	// tagged redundant — it never materializes in the final query.
	s := paperSchema(t)
	c := constraint.New("cx",
		[]predicate.Predicate{predicate.Eq("driver", "name", value.String("bob"))},
		nil,
		predicate.Eq("driver", "rank", value.String("chief")))
	o := NewOptimizer(s, CatalogSource{Catalog: constraint.MustCatalog(c)}, Options{Cost: keepAll{}})
	q := query.New("driver").
		AddProject("driver", "licenseClass").
		AddSelect(predicate.Eq("driver", "name", value.String("bob")))
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(res.Optimized.Selects) != 1 {
		t.Errorf("non-indexed intra introduction must not surface: %s", res.Optimized)
	}
	key := predicate.Eq("driver", "rank", value.String("chief")).Key()
	if tag, ok := res.FinalTags()[key]; !ok || tag != TagRedundant {
		t.Errorf("introduced-redundant tag = %v, %v", tag, ok)
	}
}

// TestRedundantIntroductionEnablesChain checks the paper's column update: a
// predicate introduced even as redundant makes AbsentAntecedent cells
// present, enabling further constraints.
func TestRedundantIntroductionEnablesChain(t *testing.T) {
	s := schema.NewBuilder().
		Class("emp",
			schema.Attribute{Name: "a", Type: value.KindInt},
			schema.Attribute{Name: "b", Type: value.KindInt},
			schema.Attribute{Name: "c", Type: value.KindInt, Indexed: true}).
		MustBuild()
	// ca: a=1 -> b=2 (non-indexed: introduced redundant)
	// cb: b=2 -> c=3 (indexed: introduced optional)
	ca := constraint.New("ca",
		[]predicate.Predicate{predicate.Eq("emp", "a", value.Int(1))},
		nil, predicate.Eq("emp", "b", value.Int(2)))
	cb := constraint.New("cb",
		[]predicate.Predicate{predicate.Eq("emp", "b", value.Int(2))},
		nil, predicate.Eq("emp", "c", value.Int(3)))
	o := NewOptimizer(s, CatalogSource{Catalog: constraint.MustCatalog(ca, cb)},
		Options{Cost: keepAll{}, DisableImpliedAntecedents: true})
	q := query.New("emp").
		AddProject("emp", "a").
		AddSelect(predicate.Eq("emp", "a", value.Int(1)))
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	keyC := predicate.Eq("emp", "c", value.Int(3)).Key()
	if res.FinalTags()[keyC] != TagOptional {
		t.Errorf("chained introduction failed: tags = %v", res.FinalTags())
	}
	// b=2 itself stays redundant and out of the query.
	found := false
	for _, p := range res.Optimized.Selects {
		if p.Key() == keyC {
			found = true
		}
		if p.Key() == predicate.Eq("emp", "b", value.Int(2)).Key() {
			t.Error("redundant intermediate must not surface")
		}
	}
	if !found {
		t.Errorf("c=3 should be in the final query: %s", res.Optimized)
	}
}

// TestOrderIndependence shuffles the constraint catalog and checks that the
// outcome never changes — the paper's headline claim.
func TestOrderIndependence(t *testing.T) {
	s := paperSchema(t)
	base := []*constraint.Constraint{
		paperC1(), paperC2(),
		constraint.New("c3", nil, []string{"drives"},
			predicate.Join("driver", "licenseClass", predicate.GE, "vehicle", "class")),
		constraint.New("c4", nil, nil,
			predicate.Eq("driver", "rank", value.String("research staff member"))),
		constraint.New("c6",
			[]predicate.Predicate{predicate.Eq("cargo", "desc", value.String("frozen food"))},
			nil,
			predicate.Sel("cargo", "quantity", predicate.LE, value.Int(500))),
	}
	q := query.New("supplier", "cargo", "vehicle", "driver").
		AddProject("vehicle", "vehicle#").
		AddProject("cargo", "quantity").
		AddSelect(predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))).
		AddSelect(predicate.Eq("supplier", "name", value.String("SFI"))).
		AddSelect(predicate.Sel("cargo", "quantity", predicate.LE, value.Int(500))).
		AddRelationship("collects").
		AddRelationship("supplies").
		AddRelationship("drives")

	var wantSig string
	var wantTags map[string]Tag
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		shuffled := append([]*constraint.Constraint(nil), base...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		cat := constraint.MustCatalog(shuffled...)
		o := NewOptimizer(s, CatalogSource{Catalog: cat}, Options{Cost: keepAll{}})
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sig := res.Optimized.Signature()
		if trial == 0 {
			wantSig = sig
			wantTags = res.FinalTags()
			continue
		}
		if sig != wantSig {
			t.Fatalf("trial %d: signature changed:\n%s\nvs\n%s", trial, sig, wantSig)
		}
		for k, v := range wantTags {
			if res.FinalTags()[k] != v {
				t.Fatalf("trial %d: tag of %s changed: %v vs %v", trial, k, res.FinalTags()[k], v)
			}
		}
	}
}

// TestIdempotence: optimizing an optimized query changes nothing further.
func TestIdempotence(t *testing.T) {
	for _, cost := range []CostModel{keepAll{}, nil} { // nil -> HeuristicCost
		o := newPaperOptimizer(t, Options{Cost: cost})
		res1, err := o.Optimize(paperQuery())
		if err != nil {
			t.Fatalf("first Optimize: %v", err)
		}
		res2, err := o.Optimize(res1.Optimized)
		if err != nil {
			t.Fatalf("second Optimize: %v", err)
		}
		if !res1.Optimized.Equal(res2.Optimized) {
			t.Errorf("not idempotent:\nfirst:  %s\nsecond: %s", res1.Optimized, res2.Optimized)
		}
	}
}

func TestBudgetLimitsTransformations(t *testing.T) {
	o := newPaperOptimizer(t, Options{Budget: 1})
	res, err := o.Optimize(paperQuery())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Stats.Fires != 1 {
		t.Errorf("Fires = %d, want exactly the budget", res.Stats.Fires)
	}
	// Only c1's introduction happened, so p2's tag never left imperative.
	p2 := predicate.Eq("supplier", "name", value.String("SFI"))
	if res.FinalTags()[p2.Key()] != TagImperative {
		t.Errorf("p2 tag = %v, want imperative under budget", res.FinalTags()[p2.Key()])
	}
	// Formulation-time class elimination is not a queue transformation and
	// still fires: the chase derives p2 from the introduced p3, so the
	// budgeted run reaches the same final query as the unlimited one.
	if res.Optimized.HasClass("supplier") {
		t.Error("supplier should still be eliminated via derivability under budget")
	}
}

func TestPriorities(t *testing.T) {
	// Two independently fireable constraints: an elimination and an index
	// introduction. Under FIFO the elimination (earlier row) fires first;
	// with priorities the index introduction does.
	s := schema.NewBuilder().
		Class("emp",
			schema.Attribute{Name: "rank", Type: value.KindString},
			schema.Attribute{Name: "grade", Type: value.KindInt, Indexed: true},
			schema.Attribute{Name: "unit", Type: value.KindString}).
		MustBuild()
	elim := constraint.New("celim",
		[]predicate.Predicate{predicate.Eq("emp", "rank", value.String("mgr"))},
		nil, predicate.Eq("emp", "unit", value.String("hq")))
	intro := constraint.New("cintro",
		[]predicate.Predicate{predicate.Eq("emp", "rank", value.String("mgr"))},
		nil, predicate.Eq("emp", "grade", value.Int(9)))
	cat := constraint.MustCatalog(elim, intro)
	q := query.New("emp").
		AddProject("emp", "rank").
		AddSelect(predicate.Eq("emp", "rank", value.String("mgr"))).
		AddSelect(predicate.Eq("emp", "unit", value.String("hq")))

	fifo := NewOptimizer(s, CatalogSource{Catalog: cat}, Options{Cost: keepAll{}})
	resF, err := fifo.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if resF.Trace[0].Constraint != "celim" {
		t.Errorf("FIFO should fire celim first, got %s", resF.Trace[0].Constraint)
	}

	prio := NewOptimizer(s, CatalogSource{Catalog: cat}, Options{Cost: keepAll{}, UsePriorities: true})
	resP, err := prio.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if resP.Trace[0].Constraint != "cintro" {
		t.Errorf("priority queue should fire the index introduction first, got %s", resP.Trace[0].Constraint)
	}
	// Outcome (not order) must be identical — order independence again.
	if !resF.Optimized.Equal(resP.Optimized) {
		t.Errorf("priorities changed the outcome:\n%s\nvs\n%s", resF.Optimized, resP.Optimized)
	}
}

func TestRuleGating(t *testing.T) {
	p2 := predicate.Eq("supplier", "name", value.String("SFI"))
	p3 := predicate.Eq("cargo", "desc", value.String("frozen food"))

	// Introduction disabled: c1 cannot introduce p3, so c2 cannot fire and
	// p2 stays imperative.
	o := newPaperOptimizer(t, Options{Rules: RuleElimination | RuleClassElimination})
	res, err := o.Optimize(paperQuery())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if _, ok := res.FinalTags()[p3.Key()]; ok && res.FinalTags()[p3.Key()] != TagImperative {
		t.Errorf("p3 should not be introduced: %v", res.FinalTags())
	}
	if res.FinalTags()[p2.Key()] != TagImperative {
		t.Errorf("p2 tag = %v, want imperative without introduction", res.FinalTags()[p2.Key()])
	}

	// Elimination disabled: p2 keeps its imperative tag (no restriction
	// elimination fires), yet class elimination is still allowed to drop
	// supplier because the chase proves p2 derivable from the introduced
	// p3 — which is pinned imperative as the witness.
	o = newPaperOptimizer(t, Options{Rules: RuleIntroduction | RuleClassElimination})
	res, err = o.Optimize(paperQuery())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.FinalTags()[p3.Key()] != TagOptional {
		t.Errorf("p3 tag = %v, want optional (pinned witnesses keep their tag)", res.FinalTags()[p3.Key()])
	}
	if res.Optimized.HasClass("supplier") {
		t.Error("supplier should be eliminated via derivability even with restriction elimination off")
	}
	found := false
	for _, p := range res.Optimized.Selects {
		if p.Key() == p3.Key() {
			found = true
		}
	}
	if !found {
		t.Error("the pinned witness p3 must appear in the final query")
	}

	// Class elimination disabled: everything else happens, supplier stays.
	o = newPaperOptimizer(t, Options{Rules: RuleElimination | RuleIntroduction})
	res, err = o.Optimize(paperQuery())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !res.Optimized.HasClass("supplier") {
		t.Error("supplier must survive with class elimination off")
	}
	// p2 became optional and keepAll retains it.
	if res.FinalTags()[p2.Key()] != TagOptional {
		t.Errorf("p2 tag = %v, want optional", res.FinalTags()[p2.Key()])
	}
}

func TestImpliedAntecedents(t *testing.T) {
	s := schema.NewBuilder().
		Class("emp",
			schema.Attribute{Name: "grade", Type: value.KindInt},
			schema.Attribute{Name: "unit", Type: value.KindString, Indexed: true}).
		MustBuild()
	// grade > 3 -> unit = "hq"; query has grade = 5, which implies grade > 3.
	c := constraint.New("ci",
		[]predicate.Predicate{predicate.Sel("emp", "grade", predicate.GT, value.Int(3))},
		nil, predicate.Eq("emp", "unit", value.String("hq")))
	q := query.New("emp").
		AddProject("emp", "grade").
		AddSelect(predicate.Eq("emp", "grade", value.Int(5)))
	key := predicate.Eq("emp", "unit", value.String("hq")).Key()

	on := NewOptimizer(s, CatalogSource{Catalog: constraint.MustCatalog(c)}, Options{Cost: keepAll{}})
	res, err := on.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.FinalTags()[key] != TagOptional {
		t.Errorf("implication matching should fire ci: tags = %v", res.FinalTags())
	}

	off := NewOptimizer(s, CatalogSource{Catalog: constraint.MustCatalog(c)},
		Options{Cost: keepAll{}, DisableImpliedAntecedents: true})
	res, err = off.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if _, ok := res.FinalTags()[key]; ok {
		t.Errorf("verbatim matching must not fire ci: tags = %v", res.FinalTags())
	}
}

func TestContradictionDetection(t *testing.T) {
	s := schema.NewBuilder().
		Class("emp",
			schema.Attribute{Name: "grade", Type: value.KindInt},
			schema.Attribute{Name: "unit", Type: value.KindString}).
		MustBuild()
	// grade = 5 -> unit = "hq"; query asks grade = 5 AND unit = "lab".
	c := constraint.New("cc",
		[]predicate.Predicate{predicate.Eq("emp", "grade", value.Int(5))},
		nil, predicate.Eq("emp", "unit", value.String("hq")))
	q := query.New("emp").
		AddProject("emp", "grade").
		AddSelect(predicate.Eq("emp", "grade", value.Int(5))).
		AddSelect(predicate.Eq("emp", "unit", value.String("lab")))

	on := NewOptimizer(s, CatalogSource{Catalog: constraint.MustCatalog(c)},
		Options{Cost: keepAll{}, DetectContradictions: true})
	res, err := on.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !res.EmptyResult {
		t.Error("contradiction should prove the result empty")
	}

	off := NewOptimizer(s, CatalogSource{Catalog: constraint.MustCatalog(c)}, Options{Cost: keepAll{}})
	res, err = off.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.EmptyResult {
		t.Error("detection disabled: EmptyResult must stay false")
	}
}

func TestSubsumption(t *testing.T) {
	s := schema.NewBuilder().
		Class("emp",
			schema.Attribute{Name: "grade", Type: value.KindInt, Indexed: true},
			schema.Attribute{Name: "unit", Type: value.KindString}).
		MustBuild()
	// unit = "hq" -> grade > 5 (indexed, so the intra-class introduction is
	// tagged optional per Table 3.2). Query has grade > 3 and unit = "hq":
	// the introduced grade > 5 subsumes grade > 3.
	c := constraint.New("cs",
		[]predicate.Predicate{predicate.Eq("emp", "unit", value.String("hq"))},
		nil, predicate.Sel("emp", "grade", predicate.GT, value.Int(5)))
	q := query.New("emp").
		AddProject("emp", "unit").
		AddSelect(predicate.Sel("emp", "grade", predicate.GT, value.Int(3))).
		AddSelect(predicate.Eq("emp", "unit", value.String("hq")))

	o := NewOptimizer(s, CatalogSource{Catalog: constraint.MustCatalog(c)}, Options{Cost: keepAll{}})
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	weak := predicate.Sel("emp", "grade", predicate.GT, value.Int(3))
	strong := predicate.Sel("emp", "grade", predicate.GT, value.Int(5))
	var haveWeak, haveStrong bool
	for _, p := range res.Optimized.Selects {
		switch p.Key() {
		case weak.Key():
			haveWeak = true
		case strong.Key():
			haveStrong = true
		}
	}
	if haveWeak || !haveStrong {
		t.Errorf("subsumption should keep only grade > 5: %s", res.Optimized)
	}

	noSub := NewOptimizer(s, CatalogSource{Catalog: constraint.MustCatalog(c)},
		Options{Cost: keepAll{}, DisableSubsumption: true})
	res, err = noSub.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(res.Optimized.Selects) != 3 {
		t.Errorf("without subsumption all three predicates stay: %s", res.Optimized)
	}
}

func TestClassEliminationSafety(t *testing.T) {
	// Partial participation: not every cargo has a supplier, so supplier
	// must not be eliminated even when its predicate is optional.
	s := schema.NewBuilder().
		Class("supplier", schema.Attribute{Name: "name", Type: value.KindString}).
		Class("cargo", schema.Attribute{Name: "desc", Type: value.KindString}).
		Class("vehicle", schema.Attribute{Name: "desc", Type: value.KindString}).
		PartialRelationship("supplies", "supplier", "cargo", schema.OneToMany, true, false).
		Relationship("collects", "vehicle", "cargo", schema.OneToMany).
		MustBuild()
	cat := constraint.MustCatalog(paperC1(), paperC2())
	o := NewOptimizer(s, CatalogSource{Catalog: cat}, Options{Cost: keepAll{}})
	q := query.New("supplier", "cargo", "vehicle").
		AddProject("cargo", "desc").
		AddSelect(predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))).
		AddSelect(predicate.Eq("supplier", "name", value.String("SFI"))).
		AddRelationship("collects").
		AddRelationship("supplies")
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !res.Optimized.HasClass("supplier") {
		t.Error("partial participation: supplier must not be eliminated")
	}
}

func TestClassEliminationCascade(t *testing.T) {
	// a - b - c chain, projecting only from a, no predicates: c is dangling,
	// and after c goes, b dangles too.
	s := schema.NewBuilder().
		Class("a", schema.Attribute{Name: "x", Type: value.KindInt}).
		Class("b", schema.Attribute{Name: "x", Type: value.KindInt}).
		Class("c", schema.Attribute{Name: "x", Type: value.KindInt}).
		Relationship("ab", "a", "b", schema.ManyToOne).
		Relationship("bc", "b", "c", schema.ManyToOne).
		MustBuild()
	o := NewOptimizer(s, CatalogSource{Catalog: constraint.MustCatalog()}, Options{Cost: keepAll{}})
	q := query.New("a", "b", "c").
		AddProject("a", "x").
		AddRelationship("ab").
		AddRelationship("bc")
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Optimized.HasClass("b") || res.Optimized.HasClass("c") {
		t.Errorf("cascade elimination failed: %s", res.Optimized)
	}
	if len(res.Optimized.Relationships) != 0 {
		t.Errorf("relationships should be gone: %s", res.Optimized)
	}
}

func TestClassEliminationCostGate(t *testing.T) {
	o := newPaperOptimizer(t, Options{Cost: dropAll{}})
	res, err := o.Optimize(paperQuery())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !res.Optimized.HasClass("supplier") {
		t.Error("cost model vetoed elimination; supplier must stay")
	}
	// dropAll also discards the optional predicates.
	p3 := predicate.Eq("cargo", "desc", value.String("frozen food"))
	if res.FinalTags()[p3.Key()] != TagRedundant {
		t.Errorf("p3 should be demoted to redundant by dropAll: %v", res.FinalTags()[p3.Key()])
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	o := newPaperOptimizer(t, Options{})
	q := query.New("ghost")
	if _, err := o.Optimize(q); err == nil {
		t.Error("invalid query should be rejected")
	}
}

func TestIrrelevantConstraintsFilteredDefensively(t *testing.T) {
	// A source that returns everything, relevant or not.
	s := paperSchema(t)
	cat := constraint.MustCatalog(paperC1(), paperC2(),
		constraint.New("c4", nil, nil,
			predicate.Eq("driver", "rank", value.String("research staff member"))))
	everything := allSource{cat}
	o := NewOptimizerSymbols(s, everything, symtab.Compile(s, cat.All()), Options{Cost: keepAll{}})
	res, err := o.Optimize(paperQuery())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Stats.RelevantConstraints != 2 {
		t.Errorf("RelevantConstraints = %d, want 2 (c4 filtered)", res.Stats.RelevantConstraints)
	}
}

type allSource struct{ cat *constraint.Catalog }

func (s allSource) Retrieve(*query.Query) []*constraint.Constraint { return s.cat.All() }

// TestOptimizerNeedsSymbolSpace: the transformation table has one form, in a
// compiled symbol space. A source NewOptimizer cannot take one from is
// refused at construction, and so is a nil table; a relevant constraint the
// table cannot resolve fails the optimization instead of running elsewhere.
func TestOptimizerNeedsSymbolSpace(t *testing.T) {
	s := paperSchema(t)
	cat := constraint.MustCatalog(paperC1(), paperC2())
	mustPanic := func(name string, build func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		build()
	}
	mustPanic("NewOptimizer over a source without symbols", func() {
		NewOptimizer(s, allSource{cat}, Options{})
	})
	mustPanic("NewOptimizerSymbols with a nil table", func() {
		NewOptimizerSymbols(s, allSource{cat}, nil, Options{})
	})

	// c2 is relevant to the paper's query but absent from the table.
	o := NewOptimizerSymbols(s, allSource{cat}, symtab.Compile(s, []*constraint.Constraint{paperC1()}), Options{})
	if _, err := o.Optimize(paperQuery()); err == nil {
		t.Fatal("a relevant constraint outside the symbol space optimized without error")
	}
}

func TestTagAndCellStrings(t *testing.T) {
	if TagRedundant.String() != "redundant" || TagOptional.String() != "optional" ||
		TagImperative.String() != "imperative" {
		t.Error("Tag.String broken")
	}
	for cell, want := range map[Cell]string{
		CellNone: "_", CellAbsentAntecedent: "AbsentAntecedent",
		CellPresentAntecedent: "PresentAntecedent", CellAbsentConsequent: "AbsentConsequent",
		CellImperative: "Imperative", CellOptional: "Optional", CellRedundant: "Redundant",
	} {
		if cell.String() != want {
			t.Errorf("Cell(%d).String() = %q, want %q", cell, cell.String(), want)
		}
	}
	for kind, want := range map[TransformKind]string{
		TransformElimination:      "restriction-elimination",
		TransformIntroduction:     "restriction-introduction",
		TransformDiscardOptional:  "discard-optional",
		TransformSubsumption:      "subsumption",
		TransformClassElimination: "class-elimination",
	} {
		if kind.String() != want {
			t.Errorf("TransformKind(%d) = %q, want %q", kind, kind.String(), want)
		}
	}
}

func TestHeuristicCost(t *testing.T) {
	s := paperSchema(t)
	h := HeuristicCost{Schema: s}
	if !h.Profitable(nil, predicate.Eq("supplier", "name", value.String("x"))) {
		t.Error("indexed attribute should be profitable")
	}
	if h.Profitable(nil, predicate.Eq("cargo", "desc", value.String("x"))) {
		t.Error("non-indexed attribute should not be profitable")
	}
	if !h.Profitable(nil, predicate.Join("driver", "licenseClass", predicate.GE, "vehicle", "class")) {
		t.Error("join predicates default to profitable")
	}
	if !h.ClassEliminationBeneficial(nil, "supplier") {
		t.Error("class elimination defaults to beneficial")
	}
}

func TestRuleSetHas(t *testing.T) {
	if !AllRules.Has(RuleElimination) || !AllRules.Has(RuleIntroduction) || !AllRules.Has(RuleClassElimination) {
		t.Error("AllRules must contain every rule")
	}
	if RuleElimination.Has(RuleIntroduction) {
		t.Error("Has must test the specific bit")
	}
}

// TestTwoConstraintsSameConsequentConverge: an inter- and an intra-class
// constraint targeting the same predicate must converge to the lower tag
// regardless of firing order (monotonicity).
func TestTwoConstraintsSameConsequentConverge(t *testing.T) {
	s := schema.NewBuilder().
		Class("emp",
			schema.Attribute{Name: "rank", Type: value.KindString},
			schema.Attribute{Name: "unit", Type: value.KindString}).
		Class("dept", schema.Attribute{Name: "name", Type: value.KindString}).
		Relationship("belongsTo", "emp", "dept", schema.ManyToOne).
		MustBuild()
	target := predicate.Eq("emp", "unit", value.String("hq"))
	inter := constraint.New("cInter",
		[]predicate.Predicate{predicate.Eq("dept", "name", value.String("dev"))},
		[]string{"belongsTo"}, target)
	intra := constraint.New("cIntra",
		[]predicate.Predicate{predicate.Eq("emp", "rank", value.String("mgr"))},
		nil, target)
	q := query.New("emp", "dept").
		AddProject("emp", "rank").
		AddSelect(predicate.Eq("emp", "rank", value.String("mgr"))).
		AddSelect(predicate.Eq("dept", "name", value.String("dev"))).
		AddSelect(target).
		AddRelationship("belongsTo")

	for _, order := range [][]*constraint.Constraint{{inter, intra}, {intra, inter}} {
		cat := constraint.MustCatalog(order...)
		o := NewOptimizer(s, CatalogSource{Catalog: cat}, Options{Cost: keepAll{}})
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		if res.FinalTags()[target.Key()] != TagRedundant {
			t.Errorf("order %s/%s: tag = %v, want redundant (the lower of the two)",
				order[0].ID, order[1].ID, res.FinalTags()[target.Key()])
		}
	}
}
