package bench

import (
	"fmt"
	"strings"
	"testing"

	"sqo/internal/datagen"
)

func TestFig41Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res := RunFig41()
	if len(res.Micros) != len(res.ClassCounts) || len(res.Ops) != len(res.ClassCounts) {
		t.Fatalf("rows = %d µs, %d ops", len(res.Micros), len(res.Ops))
	}
	// The paper's proportionality claims, asserted on counted work (timing
	// noise would make them flaky): work grows with the constraint count at
	// the largest query, and with the class count at the largest
	// constraint set. The class direction is much flatter than the paper's
	// figure since the sparse transformation table: initialization is
	// O(Σ|cᵢ|), not O(m·n), so adding classes (columns) no longer
	// multiplies the table fill — but every added class still adds work.
	last, wide := len(res.ClassCounts)-1, len(res.ConstraintCounts)-1
	if float64(res.Ops[last][wide]) < float64(res.Ops[last][0])*1.2 {
		t.Errorf("work should grow with constraints: %v", res.Ops[last])
	}
	for i := 1; i <= last; i++ {
		if res.Ops[i][wide] <= res.Ops[i-1][wide] {
			t.Errorf("work should strictly grow with classes: %d classes %d ops, %d classes %d ops",
				res.ClassCounts[i-1], res.Ops[i-1][wide], res.ClassCounts[i], res.Ops[i][wide])
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 4.1") {
		t.Error("render missing title")
	}
}

func TestTable41MatchesPaper(t *testing.T) {
	rows, err := RunTable41()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	wantCard := []int{52, 104, 208, 208}
	wantRel := []int{77, 154, 308, 616}
	for i, r := range rows {
		if r.ObjectClasses != 5 {
			t.Errorf("%s: classes = %d, want 5", r.Name, r.ObjectClasses)
		}
		if r.Relationships != 6 {
			t.Errorf("%s: relationships = %d, want 6", r.Name, r.Relationships)
		}
		if r.AvgClassCard != wantCard[i] {
			t.Errorf("%s: avg class card = %d, want %d", r.Name, r.AvgClassCard, wantCard[i])
		}
		if r.AvgRelCard < wantRel[i]*80/100 || r.AvgRelCard > wantRel[i]*120/100 {
			t.Errorf("%s: avg rel card = %d, want ≈%d", r.Name, r.AvgRelCard, wantRel[i])
		}
	}
	out := RenderTable41(rows)
	for _, want := range []string{"DB1", "DB4", "avg. class cardinality"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable42Shape(t *testing.T) {
	res, err := RunTable42(40, 41)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DBOrder) != 4 {
		t.Fatalf("databases = %v", res.DBOrder)
	}
	// Semantics preserved everywhere.
	for db, outcomes := range res.Outcomes {
		if len(outcomes) != 40 {
			t.Errorf("%s: %d outcomes, want 40", db, len(outcomes))
		}
		for _, o := range outcomes {
			if !o.RowsPreserved {
				t.Errorf("%s: optimization changed semantics of %s", db, o.Query)
			}
		}
	}
	// The paper's headline shape (see EXPERIMENTS.md for the full
	// paper-vs-measured discussion): optimization helps the large
	// database more than the small one, a meaningful fraction of queries
	// improves, deep improvements exist, and overhead-driven losses stay
	// bounded.
	f1, f4 := res.FasterPercent("DB1"), res.FasterPercent("DB4")
	if f4 < f1 {
		t.Errorf("faster%%: DB1=%.0f DB4=%.0f; DB4 should benefit at least as much", f1, f4)
	}
	if f1 < 20 || f1 > 55 {
		t.Errorf("DB1 faster%% = %.0f, paper reports 34%%; expected the same ballpark", f1)
	}
	if f4 < 35 {
		t.Errorf("DB4 faster%% = %.0f, expected a substantial winning class", f4)
	}
	// Losses on the small database are dominated by bounded overhead.
	over := res.Percent["DB1"][len(res.BucketLabels)-1]
	if over > 30 {
		t.Errorf("DB1 >110%% share = %.0f%%, losses should be mostly mild", over)
	}
	out := res.Render()
	for _, want := range []string{"Table 4.2", "DB1", "DB4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	t.Logf("\n%s", out)
}

// TestTable42Totals pins the physical work behind Table 4.2: the summed
// metered cost of the 40 original and optimized queries on each database.
// TestTable42Shape checks only ranges, so a change to the cost-plan path's
// meters (a different plan, an extra fetch, a lost filter) would move the
// histogram silently; these sums move with any of them.
func TestTable42Totals(t *testing.T) {
	res, err := RunTable42(40, 41)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{
		"DB1": {"1707.35", "1470.35"},
		"DB2": {"4170.67", "4166.21"},
		"DB3": {"7548.13", "7366.43"},
		"DB4": {"19963.33", "18478.41"},
	}
	for db, w := range want {
		var orig, opt float64
		for _, o := range res.Outcomes[db] {
			orig += o.OriginalCost
			opt += o.OptimizedCost
		}
		got := [2]string{fmt.Sprintf("%.2f", orig), fmt.Sprintf("%.2f", opt)}
		if got != w {
			t.Errorf("%s: original/optimized cost = %s/%s, want %s/%s", db, got[0], got[1], w[0], w[1])
		}
	}
}

func TestGroupingAblation(t *testing.T) {
	rows, err := RunGrouping(40, 41)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Relevant > r.Retrieved {
			t.Errorf("%s: relevant %d > retrieved %d", r.Policy, r.Relevant, r.Retrieved)
		}
		if r.Retrieved == 0 {
			t.Errorf("%s: nothing retrieved", r.Policy)
		}
	}
	// All policies must find the same relevant constraints.
	if rows[0].Relevant != rows[1].Relevant || rows[1].Relevant != rows[2].Relevant {
		t.Errorf("policies disagree on relevance: %+v", rows)
	}
	if out := RenderGrouping(rows); !strings.Contains(out, "arbitrary") {
		t.Error("render missing policy name")
	}
}

func TestClosureAblation(t *testing.T) {
	rows, err := RunClosure([]int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// With the closure the whole chain fires off the head; without it
		// nothing beyond direct consequents is reachable.
		if r.FiresWithClosure <= r.FiresWithout {
			t.Errorf("depth %d: closure should enable more transformations (%d vs %d)",
				r.Depth, r.FiresWithClosure, r.FiresWithout)
		}
		if r.ReachWithClosure <= r.ReachWithout {
			t.Errorf("depth %d: closed catalog should prove more predicates derivable (%d vs %d)",
				r.Depth, r.ReachWithClosure, r.ReachWithout)
		}
	}
	if out := RenderClosure(rows); !strings.Contains(out, "Ablation B") {
		t.Error("render broken")
	}
}

func TestBudgetAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rows, err := RunBudget([]int{1, 2, 0}, 12, 41)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Unlimited budget fires at least as much as budget 1.
	var b1, binf float64
	for _, r := range rows {
		if !r.Priorities {
			switch r.Budget {
			case 1:
				b1 = r.MeanFires
			case 0:
				binf = r.MeanFires
			}
		}
	}
	if binf < b1 {
		t.Errorf("unlimited budget fired less than budget 1: %v vs %v", binf, b1)
	}
	if out := RenderBudget(rows); !strings.Contains(out, "inf") {
		t.Error("render broken")
	}
}

func TestComplexitySweep(t *testing.T) {
	rows, err := RunComplexity([]int{4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	// ops/(m*n) should stay bounded: the last ratio must not exceed the
	// first by more than 2x (constants, not growth).
	first := float64(rows[0].Ops) / float64(rows[0].Predicates*rows[0].Constraints)
	last := float64(rows[len(rows)-1].Ops) / float64(rows[len(rows)-1].Predicates*rows[len(rows)-1].Constraints)
	if last > first*2 {
		t.Errorf("ops/(m*n) grew from %.2f to %.2f; transformation is not O(mn)", first, last)
	}
	if out := RenderComplexity(rows); !strings.Contains(out, "ops/(m*n)") {
		t.Error("render broken")
	}
}

func TestIndexScalingSmoke(t *testing.T) {
	rows, err := RunIndexScaling([]int{60}, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Constraints != 60 || r.Classes == 0 || r.AvgRelevant <= 0 {
		t.Errorf("row shape wrong: %+v", r)
	}
	if r.IndexLookupUS < 0 || r.ScanLookupUS < 0 || r.IndexOptimizeUS <= 0 || r.ScanOptimizeUS <= 0 {
		t.Errorf("timings wrong: %+v", r)
	}
	if out := RenderIndexScaling(rows); !strings.Contains(out, "speedup") {
		t.Error("render broken")
	}
}

func TestWorldHelpers(t *testing.T) {
	w, err := NewWorld(datagen.DB1())
	if err != nil {
		t.Fatal(err)
	}
	qs, err := w.Workload(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 5 {
		t.Errorf("workload = %d", len(qs))
	}
	if _, err := NewWorld(datagen.Config{Name: "bad"}); err == nil {
		t.Error("bad config should fail")
	}
}
