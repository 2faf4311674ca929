package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sqo"
	"sqo/internal/canon"
	"sqo/internal/constraint"
	"sqo/internal/core"
	"sqo/internal/datagen"
	"sqo/internal/delta"
	"sqo/internal/exec"
	"sqo/internal/index"
	"sqo/internal/snapshot"
)

// mutate-1e4 shape: pools of the reader's near-duplicate stream, the
// semantic cache (sqod's default capacity) and the writer's rate.
const (
	mutateBase    = 1000
	mutateVariant = 4
	mutateUnseen  = 4000
	mutatePeriod  = 100 * time.Millisecond
	// mutateRate bounds the reads per second of the reader (about 46000
	// were measured on a calm host); its latency buffer holds that many per
	// second.
	mutateRate = 64000
)

func mutateCache() sqo.EngineOption {
	return sqo.WithCache(sqo.CacheConfig{Capacity: 4096, Canonicalize: true, Subsume: true})
}

// restore is one warm boot, as a restarting sqod pays for it: build the
// schema, read and decode the snapshot, adopt it.
func restore(path string) (*sqo.Engine, error) {
	sch := datagen.ScaledSchema(scaledRules / 10)
	snap, err := sqo.LoadSnapshot(path)
	if err != nil {
		return nil, err
	}
	return sqo.NewEngine(sch, sqo.WithSnapshot(snap), mutateCache())
}

// scaledWorld regenerates the fixed 10⁴-rule world.
func scaledWorld() (*sqo.Schema, *sqo.Catalog, error) {
	return sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: scaledRules, Seed: worldSeed})
}

func runMutate(cfg runConfig) (*report, error) {
	r := newReport()
	path := filepath.Join(cfg.workDir, "world.snap")
	if err := writeSnapshot(path); err != nil {
		return nil, err
	}

	// Set-up: the warm restore, with nothing else live but what a
	// restarting process holds.
	eng, setup, calmSetups, err := repeatSetup(setupRepeats, func() (*sqo.Engine, error) { return restore(path) })
	if err != nil {
		return nil, err
	}
	r.endToEnd["setup_s"] = metric{Value: setup, Unit: "s", samples: calmSetups}
	heap0 := liveHeap()

	_, cat, err := scaledWorld()
	if err != nil {
		return nil, err
	}
	qs, err := sqo.ScaledWorkload(eng.Schema(), cat, mutateBase+mutateUnseen, cfg.seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	nd := newNearDup(eng.Schema(), qs[:mutateBase], qs[mutateBase:], rng, mutateVariant)
	readRng := rand.New(rand.NewSource(cfg.seed*1_000_003 + 1))
	writeRng := rand.New(rand.NewSource(cfg.seed))
	recs := newRecorders(1, cfg.timed, mutateRate)
	var tw *mutateTwin
	if cfg.trace {
		if tw, err = newMutateTwin(r, path, eng.Schema(), cat); err != nil {
			return nil, err
		}
	}
	cat = nil
	inputs := liveHeap() - heap0

	// Warm the cache with one pass over the base pool, after the inputs
	// are measured, so that heap_mb counts its entries.
	ctx := context.Background()
	for _, q := range nd.base {
		if _, err := eng.Optimize(ctx, q); err != nil {
			return nil, err
		}
	}

	read := func(_, i int) bool {
		_, err := eng.Optimize(ctx, nd.query(nd.next(readRng, 0, i)))
		return err == nil
	}
	var updateSteal []float64 // the host steal during each update, in order
	write := func(i int) {
		steal0, tot0 := cpuTicks()
		rep, err := eng.UpdateCatalog(swapDelta(i, scaledRule(i, writeRng)))
		steal1, tot1 := cpuTicks()
		updateSteal = append(updateSteal, stealShare(steal1-steal0, tot1-tot0))
		switch {
		case err != nil:
			r.fail("update %d: %v", i, err)
		case !rep.Incremental:
			r.fail("update %d fell back to a full rebuild", i)
		}
	}
	if cfg.trace {
		if err := traceMutate(cfg, r, eng, nd, tw, recs, read, readRng, writeRng); err != nil {
			return nil, err
		}
	} else {
		var w window
		var wlat []float64
		var started []time.Time
		var origin time.Time
		w.start()
		readWhileWriting(int(cfg.timed/mutatePeriod)-1, mutatePeriod, recs, read, func(n int, stop <-chan struct{}) {
			wlat, started, origin = openLoop(n, mutatePeriod, stop, write)
		})
		w.stop()
		if _, err := addTimed(r, w, recs); err != nil {
			return nil, err
		}
		r.attempted += len(wlat)
		// The updates reported are the calm ones by the steal during each.
		// A burst of steal while the writer sweeps the cache stretches that
		// update alone, so the updates are chosen one by one rather than
		// by the slices they fall in.
		var calmLat []float64
		for i, ok := range calmest(updateSteal, len(wlat)) {
			if ok {
				calmLat = append(calmLat, wlat[i])
			}
		}
		if err := addUpdates(r, calmLat, lateness(origin, mutatePeriod, started)); err != nil {
			return nil, err
		}
		r.endToEnd["heap_mb"] = metric{Value: float64(liveHeap()-inputs) / 1e6, Unit: "MB", samples: 1}
		// The inputs must still be live when the heap is read, or their
		// size is taken away twice.
		runtime.KeepAlive(recs)
	}

	tuples, n, err := checkMutate(r, eng, nd)
	if err != nil {
		return nil, err
	}
	r.endToEnd["tuples_per_query"] = metric{Value: tuples, Unit: "tuples", samples: n}
	return r, nil
}

// writeSnapshot compiles the world cold and saves its generation, so the
// timed engine can boot warm from it.
func writeSnapshot(path string) error {
	sch, cat, err := scaledWorld()
	if err != nil {
		return err
	}
	cold, err := sqo.NewEngine(sch, sqo.WithCatalog(cat))
	if err != nil {
		return err
	}
	_, err = cold.WriteSnapshotFile(path)
	return err
}

// readWhileWriting runs closed-loop readers for n+1 periods while write
// drives an open-loop writer of n updates, one per period, beside them.
// The writer is stopped when the readers end, and both have returned when
// this does.
func readWhileWriting(n int, period time.Duration, recs []*recorder, read func(c, i int) bool, write func(n int, stop <-chan struct{})) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		write(n, stop)
	}()
	closedLoop(recs, time.Duration(n+1)*period, read)
	close(stop)
	wg.Wait()
}

// checkMutate compares the engine's answers, cache tiers included, with a
// cold build of the final catalog on every pooled query and one
// specialization of each base query, and executes them on the world's
// database for the examined-tuple count.
func checkMutate(r *report, eng *sqo.Engine, nd *nearDup) (tuplesPerQuery float64, n int, err error) {
	st := eng.Stats()
	if !st.Cache.Subsume {
		r.fail("subsumption is not effective on the engine")
	}
	if st.DegradationLevel != 0 {
		r.fail("engine left degradation level 0")
	}
	ref, err := sqo.NewEngine(eng.Schema(), sqo.WithCatalog(eng.Catalog()))
	if err != nil {
		return 0, 0, err
	}
	sch, cat, err := scaledWorld()
	if err != nil {
		return 0, 0, err
	}
	db, err := sqo.GenerateScaledDatabase(sch, cat, sqo.ScaledDBConfig{Seed: worldSeed})
	if err != nil {
		return 0, 0, err
	}
	runner := exec.New(db)
	var check []*sqo.Query
	check = append(check, nd.base...)
	check = append(check, nd.unseen...)
	for j := range nd.base {
		check = append(check, nd.rewrites[j]...)
		if len(nd.specs[j]) > 0 {
			check = append(check, nd.query(draw{kind: kindSpec, base: int32(j), fresh: 3 << 40}))
		}
	}
	ctx := context.Background()
	var tuples int64
	for _, q := range check {
		got, err := eng.Optimize(ctx, q)
		if err != nil {
			r.fail("optimize %s: %v", q, err)
			continue
		}
		cq, _ := sqo.CanonicalizeQuery(q)
		want, err := ref.Optimize(ctx, cq)
		if err != nil {
			return 0, 0, fmt.Errorf("reference optimization of %s: %w", q, err)
		}
		if got.Optimized.String() != want.Optimized.String() || got.EmptyResult != want.EmptyResult {
			r.fail("answer to %s differs from a cold build of the final catalog", q)
		}
		x, err := runner.ExecuteOptimized(ctx, got)
		if err != nil {
			return 0, 0, fmt.Errorf("executing %s: %w", q, err)
		}
		tuples += x.TuplesScanned
	}
	return float64(tuples) / float64(len(check)), len(check), nil
}

// mutateTwin replays the engine's update path on a twin lineage compiled
// from the same catalog: the delta plan, the symbol-table patch and the
// index patch, publishing each patched generation for the reader's core
// replays.
type mutateTwin struct {
	sch   *sqo.Schema
	state *delta.State
	lin   *index.Lineage
	gen   atomic.Pointer[twin]
}

// newMutateTwin times a traced warm restore layer by layer and compiles the
// twin lineage.
func newMutateTwin(r *report, path string, sch *sqo.Schema, cat *constraint.Catalog) (*mutateTwin, error) {
	tr := newTracer(time.Now())
	id := tr.begin("snapshot.read", -1)
	data, err := os.ReadFile(path)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("snapshot.Decode", -1)
	_, _, err = snapshot.Decode(data)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	snap, err := sqo.LoadSnapshot(path)
	if err != nil {
		return nil, err
	}
	id = tr.begin("sqo.NewEngine", -1)
	_, err = sqo.NewEngine(datagen.ScaledSchema(scaledRules/10), sqo.WithSnapshot(snap), mutateCache())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	r.layer("snapshot.read_s", float64(tr.dur(0))/1e9, 1)
	r.layer("snapshot.decode_s", float64(tr.dur(1))/1e9, 1)
	r.layer("sqo.restore_s", float64(tr.dur(2))/1e9, 1)
	r.layer("snapshot.bytes", float64(len(data)), 1)

	build := newTracer(time.Now())
	base, err := buildTwin(build, sch, cat)
	if err != nil {
		return nil, err
	}
	r.layer("constraint.validate_s", float64(build.dur(0))/1e9, 1)
	r.layer("symtab.compile_s", float64(build.dur(1))/1e9, 1)
	r.layer("index.build_s", float64(build.dur(2))/1e9, 1)
	mt := &mutateTwin{sch: sch, state: delta.NewState(cat.All()), lin: index.NewLineage(base.ix)}
	mt.gen.Store(base)
	return mt, nil
}

// apply replays swapDelta(i, c) on the twin under parent.
func (mt *mutateTwin) apply(tr *tracer, parent int32, i int, c *sqo.Constraint) error {
	ops := []delta.Op{{Kind: delta.Add, C: c}}
	if i > 0 {
		ops = append(ops, delta.Op{Kind: delta.Remove, ID: ruleID(i - 1)})
	}
	cur := mt.gen.Load()
	sid := tr.begin("delta.State.Plan", parent)
	plan, err := mt.state.Plan(ops, mt.sch)
	tr.end(sid)
	if err != nil {
		return err
	}
	sid = tr.begin("symtab.Table.Patch", parent)
	syms, addedOrds := cur.syms.Patch(plan.Added)
	tr.end(sid)
	sid = tr.begin("index.Index.Patch", parent)
	ix := cur.ix.Patch(mt.lin, syms, plan.RemovedOrds, plan.Added, addedOrds)
	tr.end(sid)
	mt.state.Commit(plan, addedOrds)
	mt.gen.Store(&twin{sch: mt.sch, syms: syms, ix: ix})
	return nil
}

// traceMutate is the traced run of mutate-1e4: half the time untraced,
// for the reference latency and the runtime's counts of the engine's own
// calls, then half with the reader's calls classified and replayed and
// every update replayed on the twin lineage.
func traceMutate(cfg runConfig, r *report, eng *sqo.Engine, nd *nearDup, mt *mutateTwin, recs []*recorder,
	read func(c, i int) bool, readRng, writeRng *rand.Rand) error {
	half := cfg.timed / 2
	// updates numbers the writer's deltas across both halves; the twin
	// replays every one of them to stay on the engine's generation. Those
	// of the untraced half are replayed after it, outside its window.
	updates := 0
	var pending []*sqo.Constraint
	untracedWrite := func(int) {
		c := scaledRule(updates, writeRng)
		rep, err := eng.UpdateCatalog(swapDelta(updates, c))
		if err != nil || !rep.Incremental {
			r.fail("update %d: incremental=%v err=%v", updates, rep.Incremental, err)
			return
		}
		pending = append(pending, c)
		updates++
	}
	updatesPerHalf := int(half/mutatePeriod) - 1
	var w0 window
	w0.start()
	readWhileWriting(updatesPerHalf, mutatePeriod, recs, read, func(n int, stop <-chan struct{}) { openLoop(n, mutatePeriod, stop, untracedWrite) })
	w0.stop()
	untraced, errs := merged(recs)
	addRuntime(r, w0, len(untraced))
	scratch := &tracer{origin: time.Now(), counts: map[string]float64{}}
	for i, c := range pending {
		scratch.spans = scratch.spans[:0]
		if err := mt.apply(scratch, -1, i, c); err != nil {
			r.fail("twin update %d: %v", i, err)
		}
	}

	origin := time.Now()
	reader, writer := newTracer(origin), newTracer(origin)
	tiers := newTierCounts()
	red := new(canon.Reduction)
	var cur *twin
	var opt *core.Optimizer
	var src *tracedSource
	var purged, survived, updateNS, replayNS float64
	offset := len(recs[0].lat)
	tracedRead := func(_, i int) bool {
		if reader.exhausted() {
			return true
		}
		if g := mt.gen.Load(); g != cur {
			cur = g
			opt, src = g.optimizer(reader, true)
		}
		req := reader.request()
		dr := nd.next(readRng, 0, offset+i)
		traceOptimize(reader, req, eng, opt, src, red, nd.query(dr), dr.kind == kindSpec, tiers)
		reader.end(req)
		return true
	}
	tracedWrite := func(int) {
		c := scaledRule(updates, writeRng)
		req := writer.request()
		sid := writer.begin("sqo.Engine.UpdateCatalog", req)
		rep, err := eng.UpdateCatalog(swapDelta(updates, c))
		writer.end(sid)
		if err != nil || !rep.Incremental {
			writer.end(req)
			r.fail("update %d: incremental=%v err=%v", updates, rep.Incremental, err)
			return
		}
		first := len(writer.spans)
		if err := mt.apply(writer, req, updates, c); err != nil {
			r.fail("twin update %d: %v", updates, err)
		}
		updates++
		writer.end(req)
		updateNS += float64(writer.dur(sid))
		for _, s := range writer.spans[first:] {
			replayNS += float64(s.dur())
		}
		purged += float64(rep.CachePurged)
		survived += float64(rep.CacheSurvived)
	}
	recs2 := newRecorders(1, half, mutateRate)
	var late []time.Duration
	var w window
	w.start()
	readWhileWriting(updatesPerHalf, mutatePeriod, recs2, tracedRead, func(n int, stop <-chan struct{}) {
		_, started, origin := openLoop(n, mutatePeriod, stop, tracedWrite)
		late = lateness(origin, mutatePeriod, started)
	})
	w.stop()

	tracers := []*tracer{reader, writer}
	lt := aggregate(tracers)
	reads := lt.calls["sqo.Engine.Optimize"]
	_, errs2 := merged(recs2)
	r.attempted, r.failed = len(untraced)+reads+updates, r.failed+errs+errs2
	addSteal(r, w)
	addTraceSummary(r, lt, median(spanMicros([]*tracer{reader}, "sqo.Engine.Optimize")), median(untraced))
	addTierLayers(r, lt, tiers)
	addCoreLayers(r, lt, reader.counts)
	if k := lt.calls["sqo.Engine.UpdateCatalog"]; k > 0 {
		// The engine's update is the twin's plan and patches plus the
		// cache sweep; the replayed steps are taken out to leave the sweep.
		r.layer("sqo.sweep_us", (updateNS-replayNS)/1e3/float64(k), k)
		r.layer("sqo.purged_per_update", purged/float64(k), k)
		r.layer("sqo.survived_per_update", survived/float64(k), k)
		r.layer("delta.plan_us", lt.selfUS("delta.State.Plan"), k)
		r.layer("symtab.patch_us", lt.selfUS("symtab.Table.Patch"), k)
		r.layer("index.patch_us", lt.selfUS("index.Index.Patch"), k)
	}
	r.layer("bench.writer_late_us", meanUS(late), len(late))
	path, err := dumpSpans(traceDir(), fmt.Sprintf("mutate-1e4-seed%d.tsv", cfg.seed), tracers)
	if err != nil {
		return err
	}
	fmt.Println("spans:", path)
	return nil
}
