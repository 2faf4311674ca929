package sqo

import (
	"context"
	"errors"
)

// This file is the engine's end-to-end execution surface (WithDatabase):
// optimize-then-execute, pushing the transformed query into the metered
// storage layer so the paper's I/O payoff is measured on every request, not
// estimated by the cost model.

// errNoDatabase is returned by the execution paths of an engine built
// without WithDatabase.
var errNoDatabase = errors.New("sqo: engine has no database; construct with WithDatabase to execute queries")

// CanExecute reports whether the engine was built with WithDatabase and can
// serve the end-to-end execution paths.
func (e *Engine) CanExecute() bool { return e.runner != nil }

// Execute optimizes q (cache-aware, exactly like Optimize) and runs the
// transformed query end-to-end against the engine's database: indexable
// predicates become index probes, the rest are filtered during the scan
// before a tuple is materialized, joins run as pointer traversals, and a
// query the optimizer proved empty never touches storage at all. The
// returned Execution carries the rows, the access plan, the physical meter
// and the optimization that produced the executed query. Cancellation and
// deadlines on ctx are honored inside both the transformation loop and the
// execution loops.
func (e *Engine) Execute(ctx context.Context, q *Query) (*Execution, error) {
	if e.runner == nil {
		return nil, errNoDatabase
	}
	res, err := e.Optimize(ctx, q)
	if err != nil {
		return nil, err
	}
	out, err := e.executeGuarded(q, func() (*Execution, error) {
		return e.runner.ExecuteOptimized(ctx, res)
	})
	if err != nil {
		return nil, err
	}
	e.recordExecution(out)
	return out, nil
}

// ExecuteRaw runs q end-to-end without semantic optimization — the opt-off
// baseline every measured speedup compares against. The run still plans
// greedily and still uses indexes the raw query's own predicates allow; only
// the semantic transformation is withheld.
func (e *Engine) ExecuteRaw(ctx context.Context, q *Query) (*Execution, error) {
	if e.runner == nil {
		return nil, errNoDatabase
	}
	if q == nil {
		return nil, errors.New("sqo: ExecuteRaw requires a query")
	}
	out, err := e.executeGuarded(q, func() (*Execution, error) {
		return e.runner.Execute(ctx, q)
	})
	if err != nil {
		return nil, err
	}
	e.recordExecution(out)
	return out, nil
}

// ExecuteBatch executes every query of a workload concurrently on the
// engine's worker pool (WithWorkers), optimize-then-execute per query,
// returning results positionally aligned with qs. The first failing query
// cancels the rest; on any error the partial results are discarded and only
// the error is returned — the ExecuteBatch analogue of OptimizeBatch.
func (e *Engine) ExecuteBatch(ctx context.Context, qs []*Query) ([]*Execution, error) {
	if e.runner == nil {
		return nil, errNoDatabase
	}
	return fanOut(ctx, e.cfg.workers, qs, e.Execute)
}

// recordExecution folds one execution's meter into the engine's cumulative
// serving counters (EngineStats, and sqod's GET /metrics).
func (e *Engine) recordExecution(out *Execution) {
	e.executions.Add(1)
	e.execTuples.Add(out.TuplesScanned)
	e.execPages.Add(out.Meter.PagesScanned)
	e.execProbes.Add(out.Meter.IndexProbes)
	e.execFetches.Add(out.Meter.ObjectFetches)
}
