package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sqo"
	"sqo/internal/constraint"
	"sqo/internal/core"
	"sqo/internal/index"
	"sqo/internal/query"
	"sqo/internal/symtab"
)

// spanLimit bounds one caller's span buffer. A traced phase ends early for
// a caller whose buffer is full, so memory stays bounded whatever the rate.
const spanLimit = 1 << 18

// tracer records one caller's spans in memory. Each operation opens a
// request span; every call the benchmark makes into a layer package inside
// it gets a child span named <module>.<function>. Counts measured at the
// same boundaries accumulate in counts.
type tracer struct {
	origin time.Time
	spans  []span
	req    int32
	counts map[string]float64
}

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, spanLimit), counts: map[string]float64{}}
}

// exhausted reports whether the span buffer is full; a caller whose buffer
// is full idles out the rest of the traced phase.
func (t *tracer) exhausted() bool {
	if len(t.spans) > spanLimit-64 {
		time.Sleep(time.Millisecond)
		return true
	}
	return false
}

// request opens the span of the next operation.
func (t *tracer) request() int32 {
	t.req++
	return t.begin("request", -1)
}

func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.origin)), parent: parent, req: t.req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].end = int64(time.Since(t.origin)) }

func (t *tracer) dur(id int32) int64 { return t.spans[id].dur() }

// traceDir is where traced runs write their spans, inside the checkout.
func traceDir() string { return filepath.Join(".bench_build", "perfbench", "traces") }

// layerTimes aggregates the spans of several callers: per span name, the
// number of calls and the summed self and total time, plus the coverage of
// request spans by layer spans.
type layerTimes struct {
	calls      map[string]int
	self, full map[string]int64
	coverage   float64
	requests   int
}

func aggregate(tracers []*tracer) layerTimes {
	lt := layerTimes{calls: map[string]int{}, self: map[string]int64{}, full: map[string]int64{}}
	var all []span
	for _, t := range tracers {
		base := int32(len(all))
		for _, s := range t.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			all = append(all, s)
		}
	}
	self := selfTimes(all)
	for i, s := range all {
		if s.parent == -1 {
			lt.requests++
		}
		lt.calls[s.name]++
		lt.self[s.name] += self[i]
		lt.full[s.name] += s.dur()
	}
	lt.coverage = coverage(all)
	return lt
}

// selfUS is the mean self time of one span name in microseconds.
func (lt layerTimes) selfUS(name string) float64 {
	if lt.calls[name] == 0 {
		return 0
	}
	return float64(lt.self[name]) / 1e3 / float64(lt.calls[name])
}

// fullUS is the mean duration of one span name in microseconds.
func (lt layerTimes) fullUS(name string) float64 {
	if lt.calls[name] == 0 {
		return 0
	}
	return float64(lt.full[name]) / 1e3 / float64(lt.calls[name])
}

// dumpSpans writes every span, one per line, to a file under dir: request
// ID, span index, parent index, name, start and end in nanoseconds.
func dumpSpans(dir, name string, tracers []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for c, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d.%d\t%d\t%d\t%s\t%d\t%d\n", c, s.req, i, s.parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// perLayerNames lists every per-layer metric with its unit. A traced run
// prints each of them; a layer its workload does not exercise reads 0.
var perLayerNames = map[string]string{
	"server.self_us":             "us",
	"server.response_bytes":      "B",
	"canon.canonicalize_us":      "us",
	"canon.changed_share":        "share",
	"sqo.exact_share":            "share",
	"sqo.canonical_share":        "share",
	"sqo.subsumption_share":      "share",
	"sqo.miss_share":             "share",
	"sqo.subsume_yield":          "share",
	"sqo.evictions_per_kop":      "count",
	"sqo.hit_us":                 "us",
	"sqo.subsume_us":             "us",
	"sqo.miss_us":                "us",
	"sqo.sweep_us":               "us",
	"sqo.purged_per_update":      "count",
	"sqo.survived_per_update":    "count",
	"sqo.restore_s":              "s",
	"snapshot.read_s":            "s",
	"snapshot.decode_s":          "s",
	"snapshot.bytes":             "B",
	"delta.plan_us":              "us",
	"constraint.validate_s":      "s",
	"symtab.compile_s":           "s",
	"index.build_s":              "s",
	"index.relevant_us":          "us",
	"index.relevant_per_query":   "count",
	"symtab.patch_us":            "us",
	"index.patch_us":             "us",
	"core.optimize_us":           "us",
	"core.transform_us":          "us",
	"core.formulate_us":          "us",
	"core.ops_per_query":         "count",
	"core.fires_per_query":       "count",
	"core.fire_yield":            "share",
	"engine.plan_us":             "us",
	"exec.run_us":                "us",
	"exec.tuple_reduction":       "ratio",
	"exec.empty_proven_share":    "share",
	"storage.pages_per_query":    "count",
	"storage.probes_per_query":   "count",
	"storage.fetches_per_query":  "count",
	"runtime.allocs_per_op":      "count",
	"runtime.alloc_bytes_per_op": "B",
	"runtime.gc_per_kop":         "count",
	"host.steal_pct":             "%",
	"bench.writer_late_us":       "us",
	"trace.coverage":             "share",
	"trace.latency_p50_us":       "us",
	"trace.overhead_us":          "us",
}

// layer sets one per-layer metric; its unit comes from perLayerNames.
func (r *report) layer(name string, v float64, samples int) {
	r.layers[name] = metric{Value: v, Unit: perLayerNames[name], samples: samples}
}

// spanMicros returns the durations, in microseconds, of every span of one
// name.
func spanMicros(tracers []*tracer, name string) []float64 {
	var out []float64
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.name == name {
				out = append(out, float64(s.dur())/1e3)
			}
		}
	}
	return out
}

// addTraceSummary reports the coverage of request spans and the traced
// latency of the operation's own call against the untraced latency measured
// earlier in the same run.
func addTraceSummary(r *report, lt layerTimes, tracedP50, untracedP50 float64) {
	r.layer("trace.coverage", lt.coverage, lt.requests)
	r.layer("trace.latency_p50_us", tracedP50, lt.requests)
	r.layer("trace.overhead_us", tracedP50-untracedP50, lt.requests)
}

// twin is a replica of one catalog generation's retrieval and optimizer
// layers, built from the same inputs as the engine under test, on which
// the benchmark replays an engine call layer by layer.
type twin struct {
	sch  *sqo.Schema
	syms *symtab.Table
	ix   *index.Index
}

// buildTwin compiles a generation the way the engine does, timing each
// layer's build: validation, symbol compilation, index construction.
func buildTwin(tr *tracer, sch *sqo.Schema, cat *constraint.Catalog) (*twin, error) {
	id := tr.begin("constraint.Catalog.Validate", -1)
	err := cat.Validate(sch)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("symtab.Compile", -1)
	syms := symtab.Compile(sch, cat.All())
	tr.end(id)
	id = tr.begin("index.BuildWith", -1)
	ix := index.BuildWith(cat.All(), syms)
	tr.end(id)
	return &twin{sch: sch, syms: syms, ix: ix}, nil
}

// tracedSource hands the twin's index to a core optimizer and records a
// span around every retrieval the optimizer makes, under the span the
// caller set as parent.
type tracedSource struct {
	ix     *index.Index
	tr     *tracer
	parent int32
}

func (s *tracedSource) Retrieve(q *query.Query) []*constraint.Constraint {
	id := s.tr.begin("index.Relevant", s.parent)
	out := s.ix.Relevant(q)
	s.tr.end(id)
	s.tr.counts["index.relevant"] += float64(len(out))
	return out
}

func (s *tracedSource) RetrievesOnlyRelevant() {}

// optimizer returns a core optimizer over the twin whose retrievals are
// traced into tr; recordDeps matches an engine with a result cache.
func (tw *twin) optimizer(tr *tracer, recordDeps bool) (*core.Optimizer, *tracedSource) {
	src := &tracedSource{ix: tw.ix, tr: tr}
	opts := core.Options{Cost: core.HeuristicCost{Schema: tw.sch}, RecordDeps: recordDeps}
	return core.NewOptimizerSymbols(tw.sch, src, tw.syms, opts), src
}

// replayCore runs the paper's algorithm on q under parent and records its
// counters. It returns the result, or nil on error.
func replayCore(tr *tracer, opt *core.Optimizer, src *tracedSource, parent int32, q *query.Query) *core.Result {
	id := tr.begin("core.Optimizer.Optimize", parent)
	src.parent = id
	res, err := opt.Optimize(q)
	tr.end(id)
	if err != nil {
		return nil
	}
	st := res.Stats
	tr.counts["core.calls"]++
	tr.counts["core.ops"] += float64(st.Ops)
	tr.counts["core.fires"] += float64(st.Fires)
	tr.counts["core.relevant"] += float64(st.RelevantConstraints)
	tr.counts["core.transform_ns"] += float64(st.TransformDuration)
	tr.counts["core.formulate_ns"] += float64(st.Duration - st.TransformDuration)
	return res
}

// addCoreLayers reports the core and retrieval metrics the replays counted.
func addCoreLayers(r *report, lt layerTimes, counts map[string]float64) {
	calls := counts["core.calls"]
	if calls == 0 {
		return
	}
	n := int(calls)
	retrievals := float64(lt.calls["index.Relevant"])
	r.layer("index.relevant_us", lt.selfUS("index.Relevant"), lt.calls["index.Relevant"])
	if retrievals > 0 {
		r.layer("index.relevant_per_query", counts["index.relevant"]/retrievals, int(retrievals))
	}
	r.layer("core.optimize_us", lt.selfUS("core.Optimizer.Optimize"), n)
	r.layer("core.transform_us", counts["core.transform_ns"]/1e3/calls, n)
	// Stats.Duration spans validation, retrieval and formulation around
	// the transformation loop; the retrieval span is taken out.
	r.layer("core.formulate_us", counts["core.formulate_ns"]/1e3/calls-lt.fullUS("index.Relevant")*retrievals/calls, n)
	r.layer("core.ops_per_query", counts["core.ops"]/calls, n)
	r.layer("core.fires_per_query", counts["core.fires"]/calls, n)
	if counts["core.relevant"] > 0 {
		r.layer("core.fire_yield", counts["core.fires"]/counts["core.relevant"], n)
	}
}

// sumCounts merges the callers' counters.
func sumCounts(tracers []*tracer) map[string]float64 {
	out := map[string]float64{}
	for _, t := range tracers {
		for k, v := range t.counts {
			out[k] += v
		}
	}
	return out
}
