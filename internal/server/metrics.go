package server

// metrics.go: the Prometheus/OpenMetrics surface of the serving layer, and
// the only place the server reports counters. Nothing here collects
// anything new — every series is a rendering of a counter or histogram the
// serving stack already maintains (engine stats, admission controller,
// degradation ladder, quarantine register, execution meters, per-endpoint
// latency). One engine/resilience snapshot is taken per scrape and held
// under a mutex while the registry renders, so a scrape observes a single
// consistent point in time.

import (
	"errors"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sqo"
	"sqo/internal/obs"
	"sqo/internal/resilience"
)

// scrapeState is the per-scrape snapshot the registry's collectors read.
// handleMetrics fills it and holds mu across Render, so collectors never
// race with the next scrape.
type scrapeState struct {
	mu     sync.Mutex
	eng    sqo.EngineStats
	adm    resilience.AdmissionStats
	lad    resilience.LadderStats
	trc    obs.TracerStats
	mem    runtime.MemStats
	uptime float64
}

// endpoints pairs each instrumented path with its metrics, the label set
// of the per-endpoint families. It is the one list of instrumented
// endpoints.
func (s *Server) endpoints() []struct {
	path string
	m    *endpointMetrics
} {
	return []struct {
		path string
		m    *endpointMetrics
	}{
		{"/optimize", s.optimizeM},
		{"/optimize/batch", s.batchM},
		{"/query", s.queryM},
		{"/catalog/swap", s.swapM},
		{"/catalog/update", s.updateM},
	}
}

// newRegistry builds the server's metric registry. Every family is
// registered here and nowhere else; registration panics on a name that
// breaks the sqo_ naming contract, and the exposition test guard re-checks
// the rendered output, so an unregistered or ill-named series cannot ship.
func (s *Server) newRegistry() *obs.Registry {
	r := obs.NewRegistry()
	st := &s.scrape

	// --- serving layer ---------------------------------------------------
	r.Counter("sqo_requests", "Completed requests by endpoint.", func(emit func(obs.Sample)) {
		for _, ep := range s.endpoints() {
			emit(obs.Sample{Labels: obs.Label("endpoint", ep.path), Value: float64(ep.m.requests.Load())})
		}
	})
	r.Counter("sqo_request_errors", "Requests answered with status >= 400, by endpoint.", func(emit func(obs.Sample)) {
		for _, ep := range s.endpoints() {
			emit(obs.Sample{Labels: obs.Label("endpoint", ep.path), Value: float64(ep.m.errors.Load())})
		}
	})
	r.Gauge("sqo_requests_in_flight", "Requests currently inside a handler, by endpoint.", func(emit func(obs.Sample)) {
		for _, ep := range s.endpoints() {
			emit(obs.Sample{Labels: obs.Label("endpoint", ep.path), Value: float64(ep.m.inflight.Load())})
		}
	})
	r.Histogram("sqo_request_duration_seconds", "Request service time by endpoint (log2 buckets; exemplars reference trace IDs).", func(emit func(obs.HistSample)) {
		for _, ep := range s.endpoints() {
			emit(ep.m.hist.expose(obs.Label("endpoint", ep.path)))
		}
	})
	r.Gauge("sqo_request_duration_max_seconds", "Longest request service time since start, by endpoint.", func(emit func(obs.Sample)) {
		for _, ep := range s.endpoints() {
			emit(obs.Sample{Labels: obs.Label("endpoint", ep.path), Value: float64(ep.m.hist.maxUS.Load()) / 1e6})
		}
	})
	r.Gauge("sqo_uptime_seconds", "Seconds since the server was constructed.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: st.uptime})
	})
	r.Gauge("sqo_draining", "1 while the server is draining (readiness false).", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: boolGauge(s.draining.Load())})
	})
	r.Gauge("sqo_snapshot_boot_info", "How the engine came up; the mode label is warm (snapshot restore), cold (full rebuild) or none (no snapshot store).", func(emit func(obs.Sample)) {
		mode := s.cfg.BootMode
		if mode == "" {
			mode = "none"
		}
		emit(obs.Sample{Labels: obs.Label("mode", mode), Value: 1})
	})

	// --- engine: optimization + three-tier cache -------------------------
	r.Counter("sqo_optimizations", "Optimize calls served, cache hits included.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.Optimizations)})
	})
	r.Counter("sqo_cache_hits", "Result-cache hits by tier: exact, canonical, subsumption.", func(emit func(obs.Sample)) {
		c := st.eng.Cache
		emit(obs.Sample{Labels: obs.Label("tier", "exact"), Value: float64(c.ExactHits)})
		emit(obs.Sample{Labels: obs.Label("tier", "canonical"), Value: float64(c.CanonicalHits)})
		emit(obs.Sample{Labels: obs.Label("tier", "subsumption"), Value: float64(c.SubsumptionHits)})
	})
	r.Counter("sqo_cache_misses", "Result-cache lookups that fell through to cold optimization.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.Cache.Misses)})
	})
	r.Counter("sqo_cache_evictions", "Result-cache LRU evictions.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.Cache.Evictions)})
	})
	r.Counter("sqo_cache_residual_predicates", "Residual conjuncts applied across all subsumption hits.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.Cache.ResidualPredicates)})
	})
	r.Gauge("sqo_cache_entries", "Result-cache occupancy.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.Cache.Size)})
	})
	r.Gauge("sqo_cache_capacity", "Result-cache capacity.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.Cache.Capacity)})
	})
	r.Gauge("sqo_cache_mode", "1 when a cache feature is in effect, by feature (canonicalize or subsume; subsume reads 0 under a statistics cost model even when requested).", func(emit func(obs.Sample)) {
		emit(obs.Sample{Labels: obs.Label("feature", "canonicalize"), Value: boolGauge(st.eng.Cache.Canonicalize)})
		emit(obs.Sample{Labels: obs.Label("feature", "subsume"), Value: boolGauge(st.eng.Cache.Subsume)})
	})
	r.Counter("sqo_cache_update_invalidations", "Result-cache entries handled by catalog mutations (updates and swaps), by outcome (purged or survived).", func(emit func(obs.Sample)) {
		emit(obs.Sample{Labels: obs.Label("outcome", "purged"), Value: float64(st.eng.Cache.UpdatePurged)})
		emit(obs.Sample{Labels: obs.Label("outcome", "survived"), Value: float64(st.eng.Cache.UpdateSurvived)})
	})

	// --- catalog ---------------------------------------------------------
	r.Counter("sqo_catalog_swaps", "Successful whole-catalog hot swaps.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.CatalogSwaps)})
	})
	r.Counter("sqo_catalog_updates", "Successful incremental catalog deltas.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.CatalogUpdates)})
	})
	r.Gauge("sqo_catalog_epoch", "Current catalog generation.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.Epoch)})
	})
	r.Gauge("sqo_catalog_constraints", "Live constraints in the current catalog generation.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.Constraints)})
	})
	r.Gauge("sqo_index_shape", "Shape of the current generation's constraint index, by kind: constraints, class_buckets, max_class_posting, attr_keys.", func(emit func(obs.Sample)) {
		ix := st.eng.ConstraintIndex
		emit(obs.Sample{Labels: obs.Label("kind", "constraints"), Value: float64(ix.Constraints)})
		emit(obs.Sample{Labels: obs.Label("kind", "class_buckets"), Value: float64(ix.ClassBuckets)})
		emit(obs.Sample{Labels: obs.Label("kind", "max_class_posting"), Value: float64(ix.MaxClassPosting)})
		emit(obs.Sample{Labels: obs.Label("kind", "attr_keys"), Value: float64(ix.AttrKeys)})
	})

	// --- admission + degradation + quarantine ----------------------------
	r.Counter("sqo_admission_admitted", "Data-plane requests that got an admission slot.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.adm.Admitted)})
	})
	r.Counter("sqo_admission_shed", "Data-plane requests refused, by reason (queue_full or deadline).", func(emit func(obs.Sample)) {
		emit(obs.Sample{Labels: obs.Label("reason", "queue_full"), Value: float64(st.adm.ShedQueueFull)})
		emit(obs.Sample{Labels: obs.Label("reason", "deadline"), Value: float64(st.adm.ShedDeadline)})
	})
	r.Gauge("sqo_admission_limit", "Configured admission limits, by kind (concurrent slots or queue positions).", func(emit func(obs.Sample)) {
		emit(obs.Sample{Labels: obs.Label("kind", "concurrent"), Value: float64(st.adm.MaxConcurrent)})
		emit(obs.Sample{Labels: obs.Label("kind", "queue"), Value: float64(st.adm.MaxQueue)})
	})
	r.Gauge("sqo_admission_in_flight", "Admitted requests currently holding a slot.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.adm.InFlight)})
	})
	r.Gauge("sqo_admission_queued", "Requests waiting behind the admitted set.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.adm.Queued)})
	})
	r.Gauge("sqo_admission_service_ewma_seconds", "Admission controller's service-time estimate.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.adm.ServiceEWMAUS) / 1e6})
	})
	r.Gauge("sqo_degradation_level", "Graceful-degradation ladder level in force (0 = full serving).", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.lad.Level)})
	})
	r.Counter("sqo_degradation_changes", "Ladder level changes, by direction (escalation or deescalation).", func(emit func(obs.Sample)) {
		emit(obs.Sample{Labels: obs.Label("direction", "escalation"), Value: float64(st.lad.Escalations)})
		emit(obs.Sample{Labels: obs.Label("direction", "deescalation"), Value: float64(st.lad.Deescalations)})
	})
	r.Gauge("sqo_degradation_p99_baseline_seconds", "Calm-traffic p99 the ladder's latency trend compares against.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.lad.P99BaselineUS) / 1e6})
	})
	r.Gauge("sqo_quarantine_tracked", "Fingerprints carrying at least one panic strike.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.Quarantine.Tracked)})
	})
	r.Counter("sqo_quarantine_quarantined", "Fingerprints that crossed the strike limit.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.Quarantine.Quarantined)})
	})
	r.Counter("sqo_quarantine_strikes", "Recovered panics registered as strikes.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.Quarantine.Strikes)})
	})
	r.Counter("sqo_quarantine_blocked", "Requests short-circuited by an active quarantine.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.Quarantine.Blocked)})
	})
	r.Counter("sqo_panics_recovered", "Optimizer/executor panics converted into errors.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.PanicsRecovered)})
	})

	// --- execution meters ------------------------------------------------
	r.Counter("sqo_executions", "End-to-end Execute/ExecuteRaw calls served.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.eng.Executions)})
	})
	r.Counter("sqo_exec_storage_ops", "Physical storage work by kind: tuples scanned, pages scanned, index probes, object fetches.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Labels: obs.Label("kind", "tuples_scanned"), Value: float64(st.eng.ExecTuplesScanned)})
		emit(obs.Sample{Labels: obs.Label("kind", "pages_scanned"), Value: float64(st.eng.ExecPagesScanned)})
		emit(obs.Sample{Labels: obs.Label("kind", "index_probes"), Value: float64(st.eng.ExecIndexProbes)})
		emit(obs.Sample{Labels: obs.Label("kind", "object_fetches"), Value: float64(st.eng.ExecObjectFetches)})
	})

	// --- tracer ----------------------------------------------------------
	r.Counter("sqo_traces_sampled", "Requests picked up by probabilistic trace sampling.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.trc.Sampled)})
	})
	r.Counter("sqo_traces_forced", "Requests traced on client request (X-Sqo-Trace).", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.trc.Forced)})
	})
	r.Counter("sqo_slow_queries", "Traced requests over the slow-query threshold.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.trc.SlowQueries)})
	})

	// --- runtime ---------------------------------------------------------
	r.Gauge("sqo_go_goroutines", "Live goroutines.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(runtime.NumGoroutine())})
	})
	r.Gauge("sqo_go_heap_alloc_bytes", "Bytes of allocated heap objects.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.mem.HeapAlloc)})
	})
	r.Gauge("sqo_go_gc_pause_total_seconds", "Cumulative stop-the-world GC pause.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.mem.PauseTotalNs) / 1e9})
	})
	r.Counter("sqo_go_gc_cycles", "Completed GC cycles.", func(emit func(obs.Sample)) {
		emit(obs.Sample{Value: float64(st.mem.NumGC)})
	})
	return r
}

var errInvalidN = errors.New("n must be a positive integer")

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleMetrics is GET /metrics: fill one consistent snapshot, render the
// registry under the scrape lock.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := &s.scrape
	st.mu.Lock()
	defer st.mu.Unlock()
	st.eng = s.eng.Stats()
	st.adm = s.adm.Stats()
	st.lad = s.ladder.Stats()
	st.uptime = time.Since(s.start).Seconds()
	st.trc = s.tracer.Stats()
	runtime.ReadMemStats(&st.mem)
	w.Header().Set("Content-Type", obs.ContentType)
	_ = s.reg.Render(w)
}

// handleTrace is GET /trace/{id}: one finished trace with its full span
// breakdown, while the ring retains it.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snap, ok := s.tracer.Get(id)
	if !ok {
		http.Error(w, `{"error":"trace not found (expired from the ring or never assigned)"}`, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// tracesResponse is the body of GET /traces. The tracer's counters are the
// sqo_traces_* families on /metrics.
type tracesResponse struct {
	Traces []obs.TraceSummary `json:"traces"`
}

// handleTraces is GET /traces: the ring's recent finished traces, newest
// first (?n= caps the count, default 32).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 32
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			writeError(w, http.StatusBadRequest, errInvalidN)
			return
		}
		n = parsed
	}
	writeJSON(w, http.StatusOK, tracesResponse{Traces: s.tracer.Recent(n)})
}
