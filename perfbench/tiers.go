package main

import (
	"context"

	"sqo"
	"sqo/internal/canon"
	"sqo/internal/core"
)

// cacheTier classifies one Optimize call by the change it made to the
// engine's cache counters.
func cacheTier(before, after sqo.CacheStats) string {
	switch {
	case after.SubsumptionHits > before.SubsumptionHits:
		return "subsumption"
	case after.CanonicalHits > before.CanonicalHits:
		return "canonical"
	case after.ExactHits > before.ExactHits:
		return "exact"
	default:
		return "miss"
	}
}

// tierCounts accumulates the cache-tier classification of traced calls.
type tierCounts struct {
	n                   map[string]float64
	ns                  map[string]int64
	specs, specSubsumed float64
	evictions           int64
	changed, canonCalls float64
}

func newTierCounts() *tierCounts {
	return &tierCounts{n: map[string]float64{}, ns: map[string]int64{}}
}

// traceOptimize replays one request on an engine: canonicalization, then
// Engine.Optimize bracketed by Stats reads that classify it, then, for a
// miss, the paper's algorithm on the twin. It returns the Optimize span.
func traceOptimize(tr *tracer, req int32, eng *sqo.Engine, opt *core.Optimizer, src *tracedSource, red *canon.Reduction, q *sqo.Query, spec bool, tc *tierCounts) int32 {
	id := tr.begin("canon.Reduce", req)
	canon.Reduce(q, red)
	tr.end(id)
	id = tr.begin("canon.Canonicalize", req)
	cq := canon.Canonicalize(q, red)
	tr.end(id)
	tc.canonCalls++
	if red.Changed {
		tc.changed++
	}
	id = tr.begin("sqo.Engine.Stats", req)
	before := eng.Stats().Cache
	tr.end(id)
	opID := tr.begin("sqo.Engine.Optimize", req)
	_, err := eng.Optimize(context.Background(), q)
	tr.end(opID)
	id = tr.begin("sqo.Engine.Stats", req)
	after := eng.Stats().Cache
	tr.end(id)
	if err != nil {
		return opID
	}
	tier := cacheTier(before, after)
	tc.n[tier]++
	tc.ns[tier] += tr.dur(opID)
	tc.evictions += after.Evictions - before.Evictions
	if spec {
		tc.specs++
		if tier == "subsumption" {
			tc.specSubsumed++
		}
	}
	if tier == "miss" && opt != nil {
		replayCore(tr, opt, src, req, cq)
	}
	return opID
}

// addTierLayers reports the canonicalization and cache-tier metrics of
// traced Optimize calls.
func addTierLayers(r *report, lt layerTimes, tc *tierCounts) {
	// The engine reduces every request and materializes the canonical
	// query on a miss; the replay does both for every request.
	r.layer("canon.canonicalize_us", lt.selfUS("canon.Reduce")+lt.selfUS("canon.Canonicalize"), lt.calls["canon.Reduce"])
	total := tc.n["exact"] + tc.n["canonical"] + tc.n["subsumption"] + tc.n["miss"]
	if total == 0 {
		return
	}
	n := int(total)
	for _, t := range []string{"exact", "canonical", "subsumption", "miss"} {
		r.layer("sqo."+t+"_share", tc.n[t]/total, n)
	}
	if tc.specs > 0 {
		r.layer("sqo.subsume_yield", tc.specSubsumed/tc.specs, int(tc.specs))
	}
	r.layer("sqo.evictions_per_kop", 1000*float64(tc.evictions)/total, n)
	mean := func(tiers ...string) float64 {
		var ns int64
		var k float64
		for _, t := range tiers {
			ns += tc.ns[t]
			k += tc.n[t]
		}
		if k == 0 {
			return 0
		}
		return float64(ns) / 1e3 / k
	}
	r.layer("sqo.hit_us", mean("exact", "canonical"), int(tc.n["exact"]+tc.n["canonical"]))
	r.layer("sqo.subsume_us", mean("subsumption"), int(tc.n["subsumption"]))
	r.layer("sqo.miss_us", mean("miss"), int(tc.n["miss"]))
	if tc.canonCalls > 0 {
		r.layer("canon.changed_share", tc.changed/tc.canonCalls, int(tc.canonCalls))
	}
}
