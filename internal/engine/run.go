package engine

import (
	"context"
	"fmt"

	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/storage"
	"sqo/internal/value"
)

// checkEvery is how many examined instances pass between context checks —
// frequent enough that cancellation cuts in promptly, rare enough that the
// check never shows up in a profile.
const checkEvery = 1024

// Store is the read surface the run loop drives: exactly the five database
// methods an executing plan touches. *storage.Database satisfies it
// directly; the fault-injection harness satisfies it with a wrapper that
// interposes on each call. Planning always sees the concrete database (the
// planner needs its statistics), so a wrapper perturbs execution only.
type Store interface {
	Scan(class string, m *storage.Meter, fn func(storage.Instance) bool) error
	Get(class string, oid storage.OID, m *storage.Meter) (storage.Instance, error)
	IndexLookup(class, attr string, op storage.IndexOp, v value.Value, m *storage.Meter) ([]storage.OID, error)
	Traverse(rel string, from string, oid storage.OID, m *storage.Meter) ([]storage.OID, error)
	AttrIndexOf(class, attr string) (int, error)
}

// Run executes a previously built plan. The plan must belong to the query
// (Execute guarantees that; tests may build plans directly).
func (e *Executor) Run(q *query.Query, plan *Plan) (*Result, error) {
	return e.RunContext(context.Background(), q, plan)
}

// RunContext is Run with cancellation, checked every checkEvery examined
// instances.
func (e *Executor) RunContext(ctx context.Context, q *query.Query, plan *Plan) (*Result, error) {
	res := &Result{}
	if err := RunPlan(ctx, e.db, q, plan, res); err != nil {
		return nil, err
	}
	return res, nil
}

// binding is one partial tuple: the bound instance per plan-step position.
type binding []storage.Instance

// compiledFilter is one pushed-down selective predicate with its attribute
// offset resolved.
type compiledFilter struct {
	pred predicate.Predicate
	attr int
}

// compiledJoin is one join predicate with both operand positions resolved.
type compiledJoin struct {
	pred     predicate.Predicate
	lpos, la int
	rpos, ra int
}

// compiledPlan is the plan with every name resolved to an offset, so the run
// loop does no map lookups per instance.
type compiledPlan struct {
	filters [][]compiledFilter
	joins   [][]compiledJoin
	proj    []struct{ pos, attr int }
}

func compile(s Store, q *query.Query, plan *Plan) (*compiledPlan, map[string]int, error) {
	classPos := map[string]int{}
	for i, st := range plan.Steps {
		classPos[st.Class] = i
	}
	cp := &compiledPlan{
		filters: make([][]compiledFilter, len(plan.Steps)),
		joins:   make([][]compiledJoin, len(plan.Steps)),
	}
	for i, st := range plan.Steps {
		for _, p := range st.Filters {
			ai, err := s.AttrIndexOf(st.Class, p.Left.Attr)
			if err != nil {
				return nil, nil, err
			}
			cp.filters[i] = append(cp.filters[i], compiledFilter{pred: p, attr: ai})
		}
		for _, j := range st.Joins {
			lpos, ok := classPos[j.Left.Class]
			if !ok {
				return nil, nil, fmt.Errorf("engine: join %s references unplanned class", j)
			}
			rpos, ok := classPos[j.RightAttr.Class]
			if !ok {
				return nil, nil, fmt.Errorf("engine: join %s references unplanned class", j)
			}
			la, err := s.AttrIndexOf(j.Left.Class, j.Left.Attr)
			if err != nil {
				return nil, nil, err
			}
			ra, err := s.AttrIndexOf(j.RightAttr.Class, j.RightAttr.Attr)
			if err != nil {
				return nil, nil, err
			}
			cp.joins[i] = append(cp.joins[i], compiledJoin{pred: j, lpos: lpos, la: la, rpos: rpos, ra: ra})
		}
	}
	cp.proj = make([]struct{ pos, attr int }, len(q.Project))
	for i, a := range q.Project {
		pos, ok := classPos[a.Class]
		if !ok {
			return nil, nil, fmt.Errorf("engine: projection %s references unplanned class", a)
		}
		ai, err := s.AttrIndexOf(a.Class, a.Attr)
		if err != nil {
			return nil, nil, err
		}
		cp.proj[i] = struct{ pos, attr int }{pos, ai}
	}
	return cp, classPos, nil
}

// RunPlan executes a plan of q as a pipeline over s, filling res (which the
// caller allocates, so a wrapper result can embed it). Filters are evaluated
// the moment an instance surfaces — a failing instance never becomes a
// binding — joins are checked at the first step that binds both sides, and
// the context is checked every checkEvery examined instances. This is the
// only loop that runs a plan; Plan and PlanExamined differ only in the plan
// they hand it.
func RunPlan(ctx context.Context, s Store, q *query.Query, plan *Plan, res *Result) error {
	cp, classPos, err := compile(s, q, plan)
	if err != nil {
		return err
	}
	res.Plan = plan
	m := &res.Meter

	// admit examines one surfaced instance: count it, filter it, and turn
	// survivors into bindings. It returns false only on cancellation.
	var ctxErr error
	admit := func(stepIdx int, inst storage.Instance, from binding, next *[]binding) bool {
		res.TuplesScanned++
		if res.TuplesScanned%checkEvery == 0 {
			if ctxErr = ctx.Err(); ctxErr != nil {
				return false
			}
		}
		for _, f := range cp.filters[stepIdx] {
			m.PredEvals++
			if !f.pred.EvalSel(inst.Values[f.attr]) {
				return true
			}
		}
		b := make(binding, len(plan.Steps))
		copy(b, from)
		b[stepIdx] = inst
		*next = append(*next, b)
		return true
	}

	var bindings []binding
	for stepIdx, st := range plan.Steps {
		var next []binding
		switch st.Access {
		case AccessScan:
			if stepIdx != 0 {
				return fmt.Errorf("engine: non-seed scan step at position %d", stepIdx)
			}
			err := s.Scan(st.Class, m, func(inst storage.Instance) bool {
				return admit(stepIdx, inst, nil, &next)
			})
			if err != nil {
				return err
			}

		case AccessIndex:
			if stepIdx != 0 {
				return fmt.Errorf("engine: non-seed index step at position %d", stepIdx)
			}
			op, ok := indexOp(st.IndexPred.Op)
			if !ok {
				return fmt.Errorf("engine: predicate %s cannot use an index", st.IndexPred)
			}
			oids, err := s.IndexLookup(st.Class, st.IndexPred.Left.Attr, op, st.IndexPred.Const, m)
			if err != nil {
				return err
			}
			for _, oid := range oids {
				inst, err := s.Get(st.Class, oid, m)
				if err != nil {
					return err
				}
				if !admit(stepIdx, inst, nil, &next) {
					break
				}
			}

		case AccessTraverse:
			fromPos, ok := classPos[st.FromClass]
			if !ok || fromPos >= stepIdx {
				return fmt.Errorf("engine: step %d traverses from unbound class %q", stepIdx, st.FromClass)
			}
		traverse:
			for _, b := range bindings {
				oids, err := s.Traverse(st.ViaRel, st.FromClass, b[fromPos].OID, m)
				if err != nil {
					return err
				}
				for _, oid := range oids {
					inst, err := s.Get(st.Class, oid, m)
					if err != nil {
						return err
					}
					if !admit(stepIdx, inst, b, &next) {
						break traverse
					}
				}
			}
		}
		if ctxErr != nil {
			return ctxErr
		}

		// Join predicates that became checkable at this step.
		if len(cp.joins[stepIdx]) > 0 {
			joined := next[:0]
			for _, b := range next {
				ok := true
				for _, j := range cp.joins[stepIdx] {
					m.PredEvals++
					if !j.pred.EvalJoin(b[j.lpos].Values[j.la], b[j.rpos].Values[j.ra]) {
						ok = false
						break
					}
				}
				if ok {
					joined = append(joined, b)
				}
			}
			next = joined
		}
		bindings = next
	}

	for _, b := range bindings {
		row := Row{Values: make([]value.Value, len(cp.proj))}
		for i, pr := range cp.proj {
			row.Values[i] = b[pr.pos].Values[pr.attr]
		}
		res.Rows = append(res.Rows, row)
	}
	return nil
}
