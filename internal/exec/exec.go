// Package exec runs optimized queries end-to-end against the metered storage
// substrate — the execution half of the paper's thesis. The optimizer proves
// that a transformed query is equivalent and cheaper; this package is where
// the savings become physical: transformed predicates are pushed down into
// the access layer (index probes for indexed attributes, early filtering
// inside the extent scan before a tuple is ever materialized), joins run as
// OODB pointer traversals, and every physical event lands in a per-query
// storage.Meter so the I/O payoff of Table 4.2 is measured, not estimated.
//
// There is one plan runner, engine.RunPlan, and two planning policies.
// engine.Executor.Execute runs the cost-optimal engine.Plan (the Table 4.2
// harness); this package serves with engine.PlanExamined and wraps the same
// loop with what serving needs: the proven-empty short circuit, the plan and
// execute trace spans, and the Store seam the fault-injection harness reads
// through. Its result adds EmptyProven and the optimization to the engine's.
package exec

import (
	"context"
	"fmt"

	"sqo/internal/core"
	"sqo/internal/engine"
	"sqo/internal/obs"
	"sqo/internal/query"
	"sqo/internal/storage"
)

// Result is the outcome of one end-to-end execution: the engine's rows,
// plan (nil when EmptyProven), meter and examined-instance count, plus what
// optimize-then-execute adds.
type Result struct {
	engine.Result
	// EmptyProven is true when the optimizer proved the query empty and
	// execution never touched storage.
	EmptyProven bool
	// Opt is the optimization that produced the executed query; nil when
	// the query ran unoptimized (Execute on a raw query).
	Opt *core.Result
}

// Store is the read surface the run loop drives; see engine.Store.
type Store = engine.Store

// Executor runs queries end-to-end over one database. Construct with New;
// safe for concurrent use (the underlying database allows concurrent reads).
type Executor struct {
	access  Store
	planner *engine.Executor
}

// New builds an executor over the database, sharing the greedy planner (and
// its statistics snapshot) with internal/engine.
func New(db *storage.Database) *Executor {
	return &Executor{access: db, planner: engine.New(db)}
}

// NewWith builds an executor that plans against db but reads through access —
// the seam the fault-injection harness uses to perturb the read path without
// disturbing plan selection.
func NewWith(db *storage.Database, access Store) *Executor {
	if access == nil {
		access = db
	}
	return &Executor{access: access, planner: engine.New(db)}
}

// Execute plans and runs the query with push-down and early filtering,
// honoring cancellation and deadlines on ctx. Plans come from the planner's
// serving profile (engine.PlanExamined), which seeds to minimize examined
// instances — the quantity TuplesScanned reports — rather than the 1991 disk
// model's weighted page cost; raw and optimized executions therefore compete
// under the same policy.
func (x *Executor) Execute(ctx context.Context, q *query.Query) (*Result, error) {
	tr := obs.FromContext(ctx)
	at := tr.StartSpan()
	plan, err := x.planner.PlanExamined(q)
	tr.EndSpan(obs.StagePlan, at)
	if err != nil {
		return nil, err
	}
	out := &Result{}
	at = tr.StartSpan()
	err = engine.RunPlan(ctx, x.access, q, plan, &out.Result)
	tr.EndSpan(obs.StageExecute, at)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ExecuteOptimized runs an optimization result end-to-end: a proven-empty
// query short-circuits without touching storage (the strongest possible
// push-down — zero I/O), anything else executes the transformed query.
func (x *Executor) ExecuteOptimized(ctx context.Context, res *core.Result) (*Result, error) {
	if res == nil {
		return nil, fmt.Errorf("exec: nil optimization result")
	}
	if res.EmptyResult {
		return &Result{EmptyProven: true, Opt: res}, nil
	}
	out, err := x.Execute(ctx, res.Optimized)
	if err != nil {
		return nil, err
	}
	out.Opt = res
	return out, nil
}
