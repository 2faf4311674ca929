package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"sqo"
	"sqo/internal/core"
	"sqo/internal/engine"
	"sqo/internal/exec"
	"sqo/internal/server"
)

// The 10⁴-rule scaled world: fixed, so every seed measures the same
// catalog and database; the seed chooses the query stream.
const (
	scaledRules = 10000
	worldSeed   = 1
	// executePool is the number of distinct queries the execute-1e4
	// callers cycle through. The engine has no result cache, so repeats
	// cost the same as first visits; the bound keeps the inputs small.
	executePool = 4096
	// setupRepeats is how many back-to-back set-ups a run times; setup_s
	// is the median of the calm ones.
	setupRepeats = 21
	// updateBatches batches of updateBatch updates make execute-1e4's
	// update phase, which runs after its reads rather than beside them.
	updateBatches = 15
	updateBatch   = 200
	// executeRate bounds the operations per second one execute-1e4 caller
	// completes (about 11000 were measured); the latency buffers hold that
	// many per second.
	executeRate = 20000
)

// execSample is what one caller accumulates besides latencies.
type execSample struct {
	tuples int64
	_      [7]int64 // keep the two callers' counters off one cache line
}

func runExecute(cfg runConfig) (*report, error) {
	r := newReport()
	sch, cat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: scaledRules, Seed: worldSeed})
	if err != nil {
		return nil, err
	}
	db, err := sqo.GenerateScaledDatabase(sch, cat, sqo.ScaledDBConfig{Seed: worldSeed})
	if err != nil {
		return nil, err
	}

	// Set-up: the cold compile of the catalog over the database.
	eng, setup, calmSetups, err := repeatSetup(setupRepeats, func() (*sqo.Engine, error) {
		return sqo.NewEngine(sch, sqo.WithCatalog(cat), sqo.WithDatabase(db))
	})
	if err != nil {
		return nil, err
	}
	r.endToEnd["setup_s"] = metric{Value: setup, Unit: "s", samples: calmSetups}
	heap0 := liveHeap()

	pool, err := sqo.ScaledWorkload(sch, cat, executePool, cfg.seed)
	if err != nil {
		return nil, err
	}
	const callers = 2
	recs := newRecorders(callers, cfg.timed, executeRate)
	acc := make([]execSample, callers)
	inputs := liveHeap() - heap0
	ctx := context.Background()

	if cfg.trace {
		if err := traceExecute(cfg, r, eng, sch, cat, db, pool); err != nil {
			return nil, err
		}
	} else {
		var w window
		w.start()
		closedLoop(recs, cfg.timed, func(c, i int) bool {
			x, err := eng.Execute(ctx, pool[(c*len(pool)/callers+i)%len(pool)])
			if err != nil {
				return false
			}
			acc[c].tuples += x.TuplesScanned
			return true
		})
		w.stop()
		n, err := addTimed(r, w, recs)
		if err != nil {
			return nil, err
		}
		var tuples int64
		for _, a := range acc {
			tuples += a.tuples
		}
		r.endToEnd["tuples_per_query"] = metric{Value: float64(tuples) / float64(n), Unit: "tuples", samples: n}
		r.endToEnd["heap_mb"] = metric{Value: float64(liveHeap()-inputs) / 1e6, Unit: "MB", samples: 1}
		// The inputs must still be live when the heap is read, or their
		// size is taken away twice.
		runtime.KeepAlive(recs)
	}

	// Correctness: on a database that satisfies the catalog, every
	// optimized query returns exactly the rows of the original.
	for _, q := range pool {
		opt, err := eng.Execute(ctx, q)
		if err != nil {
			r.fail("execute %s: %v", q, err)
			continue
		}
		raw, err := eng.ExecuteRaw(ctx, q)
		if err != nil {
			r.fail("execute raw %s: %v", q, err)
			continue
		}
		if !slices.Equal(opt.Canonical(), raw.Canonical()) {
			r.fail("optimized rows differ from raw rows for %s", q)
		}
	}
	if cfg.trace {
		return r, nil
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	if err := updatePhase(r, func(i int) error {
		_, err := eng.UpdateCatalog(swapDelta(i, scaledRule(i, rng)))
		return err
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// ruleID names the n-th rule a writer adds.
func ruleID(n int) string { return fmt.Sprintf("zbench%d", n) }

// scaledRule is the n-th fresh intra-class rule of a writer over the scaled
// world, on a class drawn from rng. Its antecedent constant occurs in no
// instance, so every database state keeps satisfying the catalog.
func scaledRule(n int, rng *rand.Rand) *sqo.Constraint {
	class := fmt.Sprintf("k%03d", rng.Intn(scaledRules/10))
	return sqo.NewConstraint(ruleID(n),
		[]sqo.Predicate{sqo.Eq(class, "kind", sqo.StringValue(fmt.Sprintf("bench-mut-%d", n)))},
		nil,
		sqo.Sel(class, "load", sqo.OpLE, sqo.IntValue(int64(5000+n))))
}

// swapDelta is update i of every workload's writer: it adds c, the fresh
// rule i, and removes rule i-1, the one the previous update added. The
// catalog keeps its size and every delta has the same shape: single adds
// and single removes, as sqoload -mutate alternates them, differ in cost
// several-fold, which puts the median on the seam between two modes.
func swapDelta(i int, c *sqo.Constraint) *sqo.CatalogDelta {
	d := sqo.NewCatalogDelta().AddConstraints(c)
	if i > 0 {
		d.RemoveConstraints(ruleID(i - 1))
	}
	return d
}

// updatePhase applies updateBatches*updateBatch swapDelta updates one
// after another, after the timed read phase and with nothing else running,
// and reports their latency: the median and tail percentile of each batch,
// then the median across the calm batches (calmest, by the host steal
// during each batch). The updates' own garbage starts collections, and the
// share of updates a collection overlaps lies near the tail percentile;
// starting every batch from a collected heap and taking the median batch
// keeps one unlucky stretch from setting the run's figure. The first delta
// after a boot also seeds the engine's mutation lineage, so it is the
// slowest; waiting for each reply keeps it one sample rather than a stall
// that delays the sends queued behind it. The sample count printed is the
// number of updates in the calm batches.
func updatePhase(r *report, apply func(i int) error) error {
	var p50, p90, steal []float64
	for b := 0; b < updateBatches; b++ {
		runtime.GC()
		lat := make([]float64, 0, updateBatch)
		steal0, tot0 := cpuTicks()
		for k := 0; k < updateBatch; k++ {
			i := b*updateBatch + k
			t := time.Now()
			err := apply(i)
			lat = append(lat, float64(time.Since(t).Nanoseconds())/1e3)
			if err != nil {
				r.fail("update %d: %v", i, err)
			}
		}
		steal1, tot1 := cpuTicks()
		steal = append(steal, stealShare(steal1-steal0, tot1-tot0))
		slices.Sort(lat)
		mid, err := percentile(lat, 50)
		if err != nil {
			return err
		}
		tail, err := percentile(lat, 90)
		if err != nil {
			return err
		}
		p50, p90 = append(p50, mid), append(p90, tail)
	}
	// Like the timed phase's slices, only the calm batches count.
	var calm50, calm90 []float64
	for b, ok := range calmest(steal, updateBatches) {
		if ok {
			calm50, calm90 = append(calm50, p50[b]), append(calm90, p90[b])
		}
	}
	n := len(calm50) * updateBatch
	r.endToEnd["update_p50_us"] = metric{Value: median(calm50), Unit: "us", samples: n}
	r.endToEnd["update_p90_us"] = metric{Value: median(calm90), Unit: "us", samples: n}
	r.diag["bench.writer_late_us"] = metric{Unit: "us"}
	r.layers["bench.writer_late_us"] = metric{Unit: "us"}
	return nil
}

// addUpdates reports the latency of an open-loop writer's updates and how
// late the writer ran.
func addUpdates(r *report, lat []float64, late []time.Duration) error {
	slices.Sort(lat)
	if err := addLatency(r, lat, "update_p50_us", "update_p90_us", 90); err != nil {
		return err
	}
	m := metric{Value: meanUS(late), Unit: "us", samples: len(late)}
	r.diag["bench.writer_late_us"] = m
	r.layers["bench.writer_late_us"] = m
	return nil
}

// meanUS is the mean of ds in microseconds, 0 for none.
func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum.Nanoseconds()) / 1e3 / float64(len(ds))
}

// traceExecute is the traced run of execute-1e4: half the time untraced,
// for the reference latency and the runtime's counts of the engine's own
// calls, then half with every operation replayed layer by layer on a twin
// of the engine's generation.
func traceExecute(cfg runConfig, r *report, eng *sqo.Engine, sch *sqo.Schema, cat *sqo.Catalog, db *sqo.Database, pool []*sqo.Query) error {
	ctx := context.Background()
	const callers = 2
	recs := newRecorders(callers, cfg.timed/2, executeRate)
	var w0 window
	w0.start()
	closedLoop(recs, cfg.timed/2, func(c, i int) bool {
		_, err := eng.Execute(ctx, pool[(c*len(pool)/callers+i)%len(pool)])
		return err == nil
	})
	w0.stop()
	untraced, errs := merged(recs)
	r.attempted, r.failed = len(untraced), errs
	addRuntime(r, w0, len(untraced))

	origin := time.Now()
	setupTr := newTracer(origin)
	tw, err := buildTwin(setupTr, sch, cat)
	if err != nil {
		return err
	}
	r.layer("constraint.validate_s", float64(setupTr.dur(0))/1e9, 1)
	r.layer("symtab.compile_s", float64(setupTr.dur(1))/1e9, 1)
	r.layer("index.build_s", float64(setupTr.dur(2))/1e9, 1)

	// sqod's request handler over the same engine, and every query's
	// request body, rendered before the traced phase.
	srv, err := server.New(server.Config{Engine: eng, MonitorInterval: -1})
	if err != nil {
		return err
	}
	defer srv.Close()
	handler := srv.Handler()
	bodies := make(map[*sqo.Query][]byte, len(pool))
	for _, q := range pool {
		bodies[q] = requestBody(q.String())
	}

	tracers := make([]*tracer, callers)
	type twinCaller struct {
		opt                                           *core.Optimizer
		src                                           *tracedSource
		planner                                       *engine.Executor
		runner                                        *exec.Executor
		raw, optimized, empty, pages, probes, fetches float64
		serverNS                                      int64
		responseBytes                                 float64
	}
	tcs := make([]*twinCaller, callers)
	for c := range tracers {
		tracers[c] = newTracer(origin)
		opt, src := tw.optimizer(tracers[c], false)
		tcs[c] = &twinCaller{opt: opt, src: src, planner: engine.New(db), runner: exec.New(db)}
	}
	recs = newRecorders(callers, cfg.timed/2, executeRate)
	var w window
	w.start()
	closedLoop(recs, cfg.timed/2, func(c, i int) bool {
		tr, tc := tracers[c], tcs[c]
		if tr.exhausted() {
			return true
		}
		q := pool[(c*len(pool)/callers+i)%len(pool)]
		req := tr.request()
		id := tr.begin("sqo.Engine.Execute", req)
		x, err := eng.Execute(ctx, q)
		tr.end(id)
		if err != nil {
			tr.end(req)
			return false
		}
		res := replayCore(tr, tc.opt, tc.src, req, q)
		if res != nil && !res.EmptyResult {
			id = tr.begin("engine.Executor.PlanExamined", req)
			_, _ = tc.planner.PlanExamined(res.Optimized)
			tr.end(id)
		}
		if res != nil {
			id = tr.begin("exec.Executor.ExecuteOptimized", req)
			_, _ = tc.runner.ExecuteOptimized(ctx, res)
			tr.end(id)
		}
		id = tr.begin("sqo.Engine.ExecuteRaw", req)
		raw, err := eng.ExecuteRaw(ctx, q)
		tr.end(id)
		if err != nil {
			tr.end(req)
			return false
		}
		// The server layer: the same query through sqod's /optimize
		// handler, in process, then through Engine.Optimize alone; the
		// difference is the handler's own cost.
		id = tr.begin("server.Handler.optimize", req)
		resp := httptest.NewRecorder()
		handler.ServeHTTP(resp, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(bodies[q])))
		tr.end(id)
		opID := tr.begin("sqo.Engine.Optimize", req)
		_, err = eng.Optimize(ctx, q)
		tr.end(opID)
		tr.end(req)
		if err != nil || resp.Code != http.StatusOK {
			return false
		}
		tc.serverNS += tr.dur(id) - tr.dur(opID)
		tc.responseBytes += float64(resp.Body.Len())
		tc.raw += float64(raw.TuplesScanned)
		tc.optimized += float64(x.TuplesScanned)
		if x.EmptyProven {
			tc.empty++
		}
		tc.pages += float64(x.Meter.PagesScanned)
		tc.probes += float64(x.Meter.IndexProbes)
		tc.fetches += float64(x.Meter.ObjectFetches)
		return true
	})
	w.stop()
	lt := aggregate(tracers)
	n := lt.calls["sqo.Engine.Execute"]
	_, errs = merged(recs)
	r.attempted, r.failed = r.attempted+n, r.failed+errs
	addSteal(r, w)
	addTraceSummary(r, lt, median(spanMicros(tracers, "sqo.Engine.Execute")), median(untraced))
	addCoreLayers(r, lt, sumCounts(tracers))
	plans := lt.calls["engine.Executor.PlanExamined"]
	r.layer("engine.plan_us", lt.selfUS("engine.Executor.PlanExamined"), plans)
	// ExecuteOptimized plans before it runs; the replayed plan is taken
	// out to leave the run itself.
	runs := lt.calls["exec.Executor.ExecuteOptimized"]
	if runs > 0 {
		r.layer("exec.run_us", (float64(lt.full["exec.Executor.ExecuteOptimized"])-float64(lt.full["engine.Executor.PlanExamined"]))/1e3/float64(runs), runs)
	}
	var raw, optimized, empty, pages, probes, fetches, size float64
	var serverNS int64
	for _, tc := range tcs {
		raw += tc.raw
		optimized += tc.optimized
		empty += tc.empty
		pages += tc.pages
		probes += tc.probes
		fetches += tc.fetches
		serverNS += tc.serverNS
		size += tc.responseBytes
	}
	if k := lt.calls["server.Handler.optimize"]; k > 0 {
		r.layer("server.self_us", float64(serverNS)/1e3/float64(k), k)
		r.layer("server.response_bytes", size/float64(k), k)
	}
	if optimized > 0 {
		r.layer("exec.tuple_reduction", raw/optimized, n)
	}
	if n > 0 {
		r.layer("exec.empty_proven_share", empty/float64(n), n)
		r.layer("storage.pages_per_query", pages/float64(n), n)
		r.layer("storage.probes_per_query", probes/float64(n), n)
		r.layer("storage.fetches_per_query", fetches/float64(n), n)
	}
	path, err := dumpSpans(traceDir(), fmt.Sprintf("execute-1e4-seed%d.tsv", cfg.seed), tracers)
	if err != nil {
		return err
	}
	fmt.Println("spans:", path)
	return nil
}

// requestBody is the JSON body of an /optimize request for query text.
func requestBody(text string) []byte {
	b, _ := json.Marshal(server.OptimizeRequest{Query: text})
	return b
}
