// Package engine executes queries against the storage substrate: a greedy
// pointer-traversal planner plus the pipelined run loop that meters
// simulated physical work (pages, object fetches, index probes, link
// traversals, predicate evaluations).
//
// There is one runner and two planning policies. RunPlan is the only code
// that runs a plan: selective predicates are pushed into the access layer
// (index probes, filtering inside the extent scan), joins run as pointer
// traversals, and every physical event lands in the result's Meter. Plan
// prices seeds with the 1991 disk model and is what Execute and the Table
// 4.2 harness use; PlanExamined minimizes examined instances and is what
// internal/exec serves with. Both hand their plan to the same loop.
//
// The engine stands in for the DBMS the paper ran its 40 query pairs on.
// Costs are deterministic functions of the data and the plan, so the
// optimized/original cost ratios of Table 4.2 can be regenerated exactly on
// every run.
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/storage"
	"sqo/internal/value"
)

// CostWeights converts a storage.Meter into scalar cost units. The defaults
// treat a sequential page read as the unit, price random object fetches just
// below a page (no clustering), and make predicate evaluation cheap CPU.
type CostWeights struct {
	Page          float64
	ObjectFetch   float64
	IndexProbe    float64
	LinkTraversal float64
	PredEval      float64
}

// DefaultWeights is the calibration used by the experiment harness.
var DefaultWeights = CostWeights{
	Page:          1.0,
	ObjectFetch:   0.8,
	IndexProbe:    0.6,
	LinkTraversal: 0.3,
	PredEval:      0.01,
}

// Cost collapses a meter into cost units.
func (w CostWeights) Cost(m storage.Meter) float64 {
	return w.Page*float64(m.PagesScanned) +
		w.ObjectFetch*float64(m.ObjectFetches) +
		w.IndexProbe*float64(m.IndexProbes) +
		w.LinkTraversal*float64(m.LinkTraversals) +
		w.PredEval*float64(m.PredEvals)
}

// AccessKind is how a plan step reaches its class.
type AccessKind uint8

const (
	// AccessScan reads the whole extent sequentially.
	AccessScan AccessKind = iota
	// AccessIndex probes a secondary index and fetches the matches.
	AccessIndex
	// AccessTraverse follows a relationship from an already-bound class.
	AccessTraverse
)

// String names the access kind.
func (a AccessKind) String() string {
	switch a {
	case AccessScan:
		return "scan"
	case AccessIndex:
		return "index"
	case AccessTraverse:
		return "traverse"
	default:
		return "access(?)"
	}
}

// Step is one class access in a plan.
type Step struct {
	Class     string
	Access    AccessKind
	ViaRel    string                // relationship used by AccessTraverse
	FromClass string                // bound class the traversal starts from
	IndexPred predicate.Predicate   // the predicate served by AccessIndex
	Filters   []predicate.Predicate // selective predicates checked here
	Joins     []predicate.Predicate // join predicates checkable after this step
	Links     []Link                // query relationships closing a cycle here
}

// Link is a query relationship no traversal of the plan used: it closes a
// cycle among the query's classes. It sits on the step that binds its second
// end (Step.Class), which keeps a binding only when traversing ViaRel from
// the instance bound to FromClass, its first end, reaches the step's
// instance.
type Link struct {
	ViaRel    string
	FromClass string
}

// Plan is the ordered list of steps evaluating a query.
type Plan struct {
	Steps []Step
}

// String renders the plan one step per line, for explain output.
func (p *Plan) String() string {
	var sb strings.Builder
	for i, s := range p.Steps {
		if i > 0 {
			sb.WriteByte('\n')
		}
		switch s.Access {
		case AccessScan:
			fmt.Fprintf(&sb, "%d: scan %s", i, s.Class)
		case AccessIndex:
			fmt.Fprintf(&sb, "%d: index %s on %s", i, s.Class, s.IndexPred)
		case AccessTraverse:
			fmt.Fprintf(&sb, "%d: traverse %s -[%s]-> %s", i, s.FromClass, s.ViaRel, s.Class)
		}
		for _, f := range s.Filters {
			fmt.Fprintf(&sb, " filter(%s)", f)
		}
		for _, j := range s.Joins {
			fmt.Fprintf(&sb, " join(%s)", j)
		}
		for _, l := range s.Links {
			fmt.Fprintf(&sb, " link(%s -[%s]-> %s)", l.FromClass, l.ViaRel, s.Class)
		}
	}
	return sb.String()
}

// Row is one result tuple: the projected values in query.Project order.
type Row struct {
	Values []value.Value
}

// Result is the outcome of executing one query.
type Result struct {
	// Rows are the projected result tuples, in plan order.
	Rows []Row
	// Meter is the physical work of this execution alone.
	Meter storage.Meter
	// Plan is the access plan that ran.
	Plan *Plan
	// TuplesScanned counts the instances the run examined — every instance
	// surfaced by a scan, index fetch, or traversal, before filtering.
	TuplesScanned int64
}

// Cost prices the result's meter with the given weights.
func (r *Result) Cost(w CostWeights) float64 { return w.Cost(r.Meter) }

// Canonical returns the result rows as a sorted multiset of strings, the
// form the equivalence property tests compare.
func (r *Result) Canonical() []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		parts := make([]string, len(row.Values))
		for j, v := range row.Values {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// Executor plans and runs queries over one database. Construct with New;
// it snapshots statistics once (like a cached system catalog).
type Executor struct {
	db    *storage.Database
	stats *storage.Stats
}

// New builds an executor over the database.
func New(db *storage.Database) *Executor {
	return &Executor{db: db, stats: db.Analyze()}
}

// Stats exposes the statistics snapshot (shared with the cost model).
func (e *Executor) Stats() *storage.Stats { return e.db.Analyze() }

// Execute plans and runs the query, returning rows and the metered cost.
// An EmptyResult short-circuit belongs to the caller (the optimizer's
// contradiction detection); Execute always runs the plan it is given.
func (e *Executor) Execute(q *query.Query) (*Result, error) {
	return e.ExecuteContext(context.Background(), q)
}

// ExecuteContext is Execute with cancellation: the context is checked every
// checkEvery examined instances inside the run loop, matching the
// optimizer's OptimizeContext pattern, so a cancelled or expired context
// abandons a long-running execution promptly and returns ctx.Err().
func (e *Executor) ExecuteContext(ctx context.Context, q *query.Query) (*Result, error) {
	plan, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, q, plan)
}

// Plan orders the query's classes greedily: the seed is the class with the
// smallest estimated selected cardinality (favoring indexable predicates),
// and each subsequent step traverses a query relationship from the bound set
// to the cheapest remaining class.
func (e *Executor) Plan(q *query.Query) (*Plan, error) {
	return e.plan(q, e.walkCost)
}

// PlanExamined is Plan under the serving profile: the seed minimizes the
// estimated number of instances the run will examine (scan extent or index
// matches, plus every downstream traversal fetch) instead of the weighted
// I/O cost. Under the paper's disk model a sequential scan packs dozens of
// tuples per page, so cost-optimal plans happily trade examined instances
// for sequential pages; a serving executor cares about per-tuple work, and
// internal/exec — whose headline number is TuplesScanned — plans through
// this entry point for both its optimized and raw runs.
func (e *Executor) PlanExamined(q *query.Query) (*Plan, error) {
	return e.plan(q, e.walkTuples)
}

// plan builds the greedy plan with the given seed-scoring function.
func (e *Executor) plan(q *query.Query, score func(*query.Query, string, map[string][]predicate.Predicate) float64) (*Plan, error) {
	if len(q.Classes) == 0 {
		return nil, fmt.Errorf("engine: query has no classes")
	}
	selects := map[string][]predicate.Predicate{}
	for _, p := range q.Selects {
		cl := p.Left.Class
		selects[cl] = append(selects[cl], p)
	}

	// Pick the seed by the cheapest full greedy walk, not just the
	// cheapest first access: a small unfiltered extent is a bad seed when
	// a filtered neighbor would cut every downstream traversal.
	seed := ""
	bestCost := 0.0
	for _, cl := range q.Classes {
		c := score(q, cl, selects)
		if seed == "" || c < bestCost {
			seed, bestCost = cl, c
		}
	}

	plan := &Plan{}
	bound := map[string]bool{seed: true}
	joinsDone := map[string]bool{}
	relUsed := map[string]bool{}
	step := e.seedStep(seed, selects[seed])
	step.Joins = e.checkableJoins(q, bound, joinsDone)
	step.Links = e.closingLinks(q, seed, bound, relUsed)
	plan.Steps = append(plan.Steps, step)

	for len(bound) < len(q.Classes) {
		// Candidate expansions: unbound classes reachable via an unused
		// query relationship from a bound class.
		type cand struct {
			class, rel, from string
			est              float64
		}
		var best *cand
		for _, rn := range q.Relationships {
			if relUsed[rn] {
				continue
			}
			r := e.db.Schema().Relationship(rn)
			if r == nil {
				return nil, fmt.Errorf("engine: unknown relationship %q", rn)
			}
			var from, to string
			switch {
			case bound[r.Source] && !bound[r.Target]:
				from, to = r.Source, r.Target
			case bound[r.Target] && !bound[r.Source]:
				from, to = r.Target, r.Source
			default:
				continue
			}
			est := e.estimatedCard(to, selects[to])
			if best == nil || est < best.est {
				best = &cand{class: to, rel: rn, from: from, est: est}
			}
		}
		if best == nil {
			return nil, fmt.Errorf("engine: classes %v not connected by relationships %v", q.Classes, q.Relationships)
		}
		relUsed[best.rel] = true
		bound[best.class] = true
		st := Step{
			Class:     best.class,
			Access:    AccessTraverse,
			ViaRel:    best.rel,
			FromClass: best.from,
			Filters:   selects[best.class],
		}
		st.Joins = e.checkableJoins(q, bound, joinsDone)
		st.Links = e.closingLinks(q, best.class, bound, relUsed)
		plan.Steps = append(plan.Steps, st)
	}
	return plan, nil
}

// closingLinks returns the query relationships that the step binding class
// made fully bound without traversing them, marking them used: no later
// step can traverse a relationship whose ends are both bound, so each is
// checked here or nowhere.
func (e *Executor) closingLinks(q *query.Query, class string, bound, used map[string]bool) []Link {
	var out []Link
	for _, rn := range q.Relationships {
		r := e.db.Schema().Relationship(rn)
		if used[rn] || r == nil || !bound[r.Source] || !bound[r.Target] {
			continue
		}
		used[rn] = true
		from := r.Source
		if from == class {
			from = r.Target
		}
		out = append(out, Link{ViaRel: rn, FromClass: from})
	}
	return out
}

// checkableJoins returns the join predicates whose classes are all bound and
// that have not been assigned to an earlier step.
func (e *Executor) checkableJoins(q *query.Query, bound map[string]bool, done map[string]bool) []predicate.Predicate {
	var out []predicate.Predicate
	for _, j := range q.Joins {
		if done[j.Key()] {
			continue
		}
		ok := true
		for _, cl := range j.Classes() {
			if !bound[cl] {
				ok = false
				break
			}
		}
		if ok {
			done[j.Key()] = true
			out = append(out, j)
		}
	}
	return out
}

// seedStep chooses index access when one of the class's predicates can use an
// index, otherwise a full scan; the remaining predicates become filters.
func (e *Executor) seedStep(class string, preds []predicate.Predicate) Step {
	bestIdx := -1
	bestSel := 2.0
	for i, p := range preds {
		if op, ok := indexOp(p.Op); ok && e.db.HasIndex(class, p.Left.Attr) {
			_ = op
			if s := e.selectivity(class, p); s < bestSel {
				bestSel, bestIdx = s, i
			}
		}
	}
	if bestIdx < 0 {
		return Step{Class: class, Access: AccessScan, Filters: preds}
	}
	st := Step{Class: class, Access: AccessIndex, IndexPred: preds[bestIdx]}
	for i, p := range preds {
		if i != bestIdx {
			st.Filters = append(st.Filters, p)
		}
	}
	return st
}

// seedCost estimates the physical cost of seeding from the class: index
// probe + fetches when indexable, otherwise a full scan.
func (e *Executor) seedCost(class string, preds []predicate.Predicate) float64 {
	cs := e.stats.Classes[class]
	for _, p := range preds {
		if _, ok := indexOp(p.Op); ok && e.db.HasIndex(class, p.Left.Attr) {
			return 1 + e.selectivity(class, p)*float64(cs.Card)
		}
	}
	return float64(cs.Pages) + 1
}

// walkCost estimates the cost of the whole greedy plan when seeded at the
// given class: seed access plus, per expansion step, the traversals and
// fetches driven by the surviving binding estimate. It mirrors the cost
// model's EstimateQuery so planner and optimizer agree on plan shapes.
func (e *Executor) walkCost(q *query.Query, seed string, selects map[string][]predicate.Predicate) float64 {
	cost := e.seedCost(seed, selects[seed])
	bindings := e.estimatedCard(seed, selects[seed])
	bound := map[string]bool{seed: true}
	relUsed := map[string]bool{}
	for len(bound) < len(q.Classes) {
		var bestClass, bestRel, bestFrom string
		bestEst := 0.0
		for _, rn := range q.Relationships {
			if relUsed[rn] {
				continue
			}
			r := e.db.Schema().Relationship(rn)
			if r == nil {
				continue
			}
			var from, to string
			switch {
			case bound[r.Source] && !bound[r.Target]:
				from, to = r.Source, r.Target
			case bound[r.Target] && !bound[r.Source]:
				from, to = r.Target, r.Source
			default:
				continue
			}
			est := e.estimatedCard(to, selects[to])
			if bestClass == "" || est < bestEst {
				bestClass, bestRel, bestFrom, bestEst = to, rn, from, est
			}
		}
		if bestClass == "" {
			break // disconnected; Plan will report the error
		}
		relUsed[bestRel] = true
		bound[bestClass] = true
		fan := e.stats.Rels[bestRel].Fanout[bestFrom]
		fetched := bindings * fan
		cost += bindings*DefaultWeights.LinkTraversal + fetched*DefaultWeights.ObjectFetch +
			fetched*float64(len(selects[bestClass]))*DefaultWeights.PredEval
		sel := 1.0
		for _, p := range selects[bestClass] {
			sel *= e.selectivity(bestClass, p)
		}
		bindings = fetched * sel
	}
	return cost
}

// walkTuples estimates how many instances the greedy plan seeded at the
// given class examines: the seed's scanned extent (or index matches) plus
// every downstream traversal fetch. Same walk as walkCost, different
// currency — see PlanExamined.
func (e *Executor) walkTuples(q *query.Query, seed string, selects map[string][]predicate.Predicate) float64 {
	cs := e.stats.Classes[seed]
	tuples := float64(cs.Card)
	for _, p := range selects[seed] {
		if _, ok := indexOp(p.Op); ok && e.db.HasIndex(seed, p.Left.Attr) {
			if t := e.selectivity(seed, p) * float64(cs.Card); t < tuples {
				tuples = t
			}
		}
	}
	bindings := float64(cs.Card)
	for _, p := range selects[seed] {
		bindings *= e.servingSelectivity(seed, p)
	}
	bound := map[string]bool{seed: true}
	relUsed := map[string]bool{}
	for len(bound) < len(q.Classes) {
		var bestClass, bestRel, bestFrom string
		bestEst := 0.0
		for _, rn := range q.Relationships {
			if relUsed[rn] {
				continue
			}
			r := e.db.Schema().Relationship(rn)
			if r == nil {
				continue
			}
			var from, to string
			switch {
			case bound[r.Source] && !bound[r.Target]:
				from, to = r.Source, r.Target
			case bound[r.Target] && !bound[r.Source]:
				from, to = r.Target, r.Source
			default:
				continue
			}
			est := e.estimatedCard(to, selects[to])
			if bestClass == "" || est < bestEst {
				bestClass, bestRel, bestFrom, bestEst = to, rn, from, est
			}
		}
		if bestClass == "" {
			break // disconnected; Plan will report the error
		}
		relUsed[bestRel] = true
		bound[bestClass] = true
		fetched := bindings * e.stats.Rels[bestRel].Fanout[bestFrom]
		tuples += fetched
		sel := 1.0
		for _, p := range selects[bestClass] {
			sel *= e.servingSelectivity(bestClass, p)
		}
		bindings = fetched * sel
	}
	return tuples
}

// servingSelectivity is the selectivity estimate walkTuples trusts. Without
// histograms, range selectivities are linear-interpolation guesses, and the
// restrictions the optimizer introduces are exactly where the guess is worst:
// a constraint like rank="trainee" => class<=2 holds because most instances
// satisfy its consequent, so the interpolated estimate lures the seed toward
// a filter that barely filters. The serving profile therefore trusts only
// equality (1/distinct) and index-backed estimates — an index confines the
// instances physically examined regardless of the estimate — and treats any
// other filter as non-reducing.
func (e *Executor) servingSelectivity(class string, p predicate.Predicate) float64 {
	if p.Op == predicate.EQ {
		return e.selectivity(class, p)
	}
	if _, ok := indexOp(p.Op); ok && e.db.HasIndex(class, p.Left.Attr) {
		return e.selectivity(class, p)
	}
	return 1
}

// estimatedCard is the class cardinality scaled by its predicates'
// selectivities.
func (e *Executor) estimatedCard(class string, preds []predicate.Predicate) float64 {
	cs := e.stats.Classes[class]
	est := float64(cs.Card)
	for _, p := range preds {
		est *= e.selectivity(class, p)
	}
	return est
}

func (e *Executor) selectivity(class string, p predicate.Predicate) float64 {
	as := e.stats.Classes[class].Attrs[p.Left.Attr]
	return p.Selectivity(as.Distinct, as.Min, as.Max, as.HasRange)
}

// indexOp maps a predicate operator onto an index lookup mode; != cannot use
// an ordered index.
func indexOp(op predicate.Op) (storage.IndexOp, bool) {
	switch op {
	case predicate.EQ:
		return storage.IndexEQ, true
	case predicate.LT:
		return storage.IndexLT, true
	case predicate.LE:
		return storage.IndexLE, true
	case predicate.GT:
		return storage.IndexGT, true
	case predicate.GE:
		return storage.IndexGE, true
	default:
		return 0, false
	}
}
