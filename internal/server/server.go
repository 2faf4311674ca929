package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sqo"
	"sqo/internal/obs"
	"sqo/internal/resilience"
)

// Config assembles a Server. Engine is the only required field.
type Config struct {
	// Engine serves the optimizations. Required.
	Engine *sqo.Engine

	// RequestTimeout bounds every request without its own timeout_ms
	// (default 10s); MaxTimeout caps client-supplied timeouts (default
	// 60s).
	RequestTimeout time.Duration
	MaxTimeout     time.Duration

	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64

	// MaxConcurrent and MaxQueue size the admission controller over the
	// data-plane endpoints (/optimize, /optimize/batch, /query): at most
	// MaxConcurrent requests inside the engine, at most MaxQueue waiting
	// behind them, everyone else shed with 429 + Retry-After. Defaults:
	// 16 and 4 × MaxConcurrent.
	MaxConcurrent int
	MaxQueue      int

	// MonitorInterval is the cadence of the pressure monitor driving the
	// graceful-degradation ladder (default 250ms; < 0 disables the monitor,
	// freezing the ladder at whatever level SetDegradation pinned).
	MonitorInterval time.Duration

	// Store, when set, makes catalog mutations durable: /catalog/update
	// goes through SnapshotStore.ApplyAndLog (journal append + periodic
	// compaction) and /catalog/swap re-baselines the store with a fresh
	// snapshot. The engine must have been booted from the same store.
	Store *sqo.SnapshotStore

	// TraceSample samples one in every N instrumented requests for pipeline
	// tracing (0 disables sampling). A request carrying an X-Sqo-Trace
	// header is always traced, sampled or not; the assigned trace ID comes
	// back in the X-Sqo-Trace-Id response header and the full span breakdown
	// is served by GET /trace/{id} while the ring retains it.
	TraceSample int

	// SlowQuery triggers the slow-query log: any traced request whose
	// service time meets or exceeds it is logged at Warn with its full
	// span breakdown and query fingerprint. <= 0 disables the log.
	SlowQuery time.Duration

	// TraceRing is the recent-trace ring capacity (default 256, rounded up
	// to a power of two).
	TraceRing int

	// BootMode records how the engine came up ("warm", "cold", or "" when
	// the server was not booted from a snapshot store) — exported on
	// /metrics as sqo_snapshot_boot_info so dashboards can tell a warm
	// restart from a cold rebuild.
	BootMode string

	// Log receives structured lifecycle events (construction, catalog
	// swaps, degradation changes, slow queries, close); nil discards.
	Log *slog.Logger
}

// Server is the HTTP serving layer over one sqo.Engine:
//
//	POST /optimize        — one query via Engine.Optimize
//	POST /optimize/batch  — a client-assembled batch via OptimizeBatch
//	POST /query           — optimize-then-execute against the database
//	POST /catalog/swap    — hot-swap the whole constraint catalog
//	POST /catalog/update  — apply an incremental catalog delta
//	GET  /healthz         — liveness (the process is up and serving HTTP)
//	GET  /readyz          — readiness (take traffic? false while draining)
//	GET  /quarantine      — the poison-query register
//	POST /quarantine/reset — clear the register
//	GET  /metrics         — every counter, OpenMetrics text
//	GET  /trace/{id}, /traces — pipeline traces
//
// Data-plane requests pass an admission controller (bounded concurrency +
// bounded queue, deadline-aware shedding with 429 + Retry-After), and a
// pressure monitor walks a graceful-degradation ladder that sheds
// serving-path optimizations — subsumption probing, then canonical cache
// keys — in an order proven answer-preserving.
//
// Build one with New, mount Handler on an http.Server, call StartDraining
// when shutdown begins (readiness goes false), and call Close after
// http.Server.Shutdown has drained the connections.
type Server struct {
	eng    *sqo.Engine
	cfg    Config
	mux    *http.ServeMux
	start  time.Time
	log    *slog.Logger
	tracer *obs.Tracer
	reg    *obs.Registry
	scrape scrapeState

	adm      *resilience.Admission
	ladder   *resilience.Ladder
	draining atomic.Bool
	monStop  chan struct{}
	monDone  chan struct{}
	monOnce  sync.Once

	optimizeM *endpointMetrics
	batchM    *endpointMetrics
	queryM    *endpointMetrics
	swapM     *endpointMetrics
	updateM   *endpointMetrics
}

// endpointMetrics is one endpoint's request counters and latency histogram.
type endpointMetrics struct {
	hist     histogram
	requests atomic.Int64
	errors   atomic.Int64
	inflight atomic.Int64
}

// New builds a Server over cfg.Engine and starts its pressure monitor.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MonitorInterval == 0 {
		cfg.MonitorInterval = 250 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	s := &Server{
		eng:       cfg.Engine,
		cfg:       cfg,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		log:       cfg.Log.With("component", "server"),
		adm:       resilience.NewAdmission(resilience.AdmissionConfig{MaxConcurrent: cfg.MaxConcurrent, MaxQueue: cfg.MaxQueue}),
		ladder:    resilience.NewLadder(resilience.LadderConfig{}),
		monStop:   make(chan struct{}),
		monDone:   make(chan struct{}),
		optimizeM: &endpointMetrics{},
		batchM:    &endpointMetrics{},
		queryM:    &endpointMetrics{},
		swapM:     &endpointMetrics{},
		updateM:   &endpointMetrics{},
	}
	s.tracer = obs.NewTracer(obs.TracerConfig{
		SampleN:       cfg.TraceSample,
		SlowThreshold: cfg.SlowQuery,
		RingSize:      cfg.TraceRing,
		Logger:        s.log,
	})
	s.reg = s.newRegistry()
	s.mux.HandleFunc("POST /optimize", s.instrument(s.optimizeM, s.handleOptimize))
	s.mux.HandleFunc("POST /optimize/batch", s.instrument(s.batchM, s.handleOptimizeBatch))
	s.mux.HandleFunc("POST /query", s.instrument(s.queryM, s.handleQuery))
	s.mux.HandleFunc("POST /catalog/swap", s.instrument(s.swapM, s.handleCatalogSwap))
	s.mux.HandleFunc("POST /catalog/update", s.instrument(s.updateM, s.handleCatalogUpdate))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /quarantine", s.handleQuarantine)
	s.mux.HandleFunc("POST /quarantine/reset", s.handleQuarantineReset)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /traces", s.handleTraces)
	if cfg.MonitorInterval > 0 {
		go s.monitor()
	} else {
		close(s.monDone)
	}
	return s, nil
}

// Handler returns the server's routing handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDraining flips readiness off: /readyz answers 503 so load balancers
// stop routing new traffic, while in-flight and straggler requests keep
// being served. Call it when shutdown begins, before http.Server.Shutdown.
func (s *Server) StartDraining() {
	if !s.draining.Swap(true) {
		s.log.Info("draining", "ready", false)
	}
}

// Draining reports whether StartDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close flips readiness off and stops the pressure monitor. Call it after
// http.Server.Shutdown has drained connections.
func (s *Server) Close() {
	s.StartDraining()
	s.monOnce.Do(func() { close(s.monStop) })
	<-s.monDone
}

// --- wire types -----------------------------------------------------------

// OptimizeRequest is the body of POST /optimize. Query uses the paper's
// textual form (sqo.ParseQuery); TimeoutMS overrides the server's default
// per-request deadline.
type OptimizeRequest struct {
	Query     string `json:"query"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// OptimizeResponse reports one optimization. DurationUS is the
// optimization's own measured duration (retrieval + transformation +
// formulation, from Result.Stats) — a cache hit reports the cost of the
// original computation; request service latency lives in /metrics
// (sqo_request_duration_seconds).
type OptimizeResponse struct {
	Optimized           string `json:"optimized"`
	EmptyResult         bool   `json:"empty_result,omitempty"`
	Fires               int    `json:"fires"`
	RelevantConstraints int    `json:"relevant_constraints"`
	DurationUS          int64  `json:"duration_us"`
}

// BatchRequest is the body of POST /optimize/batch.
type BatchRequest struct {
	Queries   []string `json:"queries"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

// BatchResponse reports a whole batch, positionally aligned with the
// request.
type BatchResponse struct {
	Results []OptimizeResponse `json:"results"`
}

// QueryRequest is the body of POST /query. Optimize defaults to true
// (optimize-then-execute); set it to false for the opt-off baseline that
// runs the raw query. TimeoutMS overrides the server's default per-request
// deadline.
type QueryRequest struct {
	Query     string `json:"query"`
	Optimize  *bool  `json:"optimize,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// QueryResponse reports one end-to-end execution: the projected rows (each a
// slice of stringified values in projection order), what the run cost at the
// metered storage layer, and DurationUS — the execution's service time inside
// the engine (optimization plus storage work).
type QueryResponse struct {
	Rows           [][]string `json:"rows"`
	RowCount       int        `json:"row_count"`
	Optimized      bool       `json:"optimized"`
	EmptyResult    bool       `json:"empty_result,omitempty"`
	TuplesScanned  int64      `json:"tuples_scanned"`
	PagesScanned   int64      `json:"pages_scanned"`
	IndexProbes    int64      `json:"index_probes"`
	ObjectFetches  int64      `json:"object_fetches"`
	LinkTraversals int64      `json:"link_traversals"`
	DurationUS     int64      `json:"duration_us"`
}

// SwapRequest is the body of POST /catalog/swap: a constraint catalog in
// the textual form sqo.ParseConstraintCatalog reads (one constraint per
// line, #-comments allowed).
type SwapRequest struct {
	Catalog string `json:"catalog"`
}

// SwapResponse reports the newly active generation.
type SwapResponse struct {
	Constraints int    `json:"constraints"`
	Epoch       uint64 `json:"epoch"`
}

// UpdateRequest is the body of POST /catalog/update: an incremental catalog
// delta. Add entries are whole constraints in the textual form
// sqo.ParseConstraint reads; Remove entries are constraint IDs; Replace maps
// an existing ID to its replacement constraint (applied in sorted-ID order
// for determinism). Removals apply before additions within each op, ops in
// the order add/remove/replace fields are enumerated here.
type UpdateRequest struct {
	Add     []string          `json:"add,omitempty"`
	Remove  []string          `json:"remove,omitempty"`
	Replace map[string]string `json:"replace,omitempty"`
}

// UpdateResponse reports one applied delta: the new generation, what
// changed, and what the surgical cache invalidation did. Incremental is
// false when the engine's configuration forced a full rebuild.
type UpdateResponse struct {
	Constraints   int    `json:"constraints"`
	Added         int    `json:"added"`
	Removed       int    `json:"removed"`
	Epoch         uint64 `json:"epoch"`
	Incremental   bool   `json:"incremental"`
	CachePurged   int    `json:"cache_purged"`
	CacheSurvived int    `json:"cache_survived"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- handlers -------------------------------------------------------------

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	q, err := sqo.ParseQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	tr := obs.FromContext(ctx)
	tr.MarkFromStart(obs.StageParse)
	tr.SetLabel(truncLabel(req.Query))
	release, ok := s.admit(ctx, w)
	if !ok {
		return
	}
	defer release()
	res, err := s.eng.Optimize(ctx, q)
	if err != nil {
		writeError(w, statusForError(err), err)
		return
	}
	at := tr.StartSpan()
	writeJSON(w, http.StatusOK, toOptimizeResponse(res))
	tr.EndSpan(obs.StageWrite, at)
}

// truncLabel caps a query text for use as a trace label.
func truncLabel(q string) string {
	const maxLabel = 160
	if len(q) > maxLabel {
		return q[:maxLabel] + "…"
	}
	return q
}

func (s *Server) handleOptimizeBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty query list"))
		return
	}
	qs := make([]*sqo.Query, len(req.Queries))
	for i, text := range req.Queries {
		q, err := sqo.ParseQuery(text)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		qs[i] = q
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	tr := obs.FromContext(ctx)
	tr.MarkFromStart(obs.StageParse)
	tr.SetLabel(fmt.Sprintf("batch[%d] %s", len(req.Queries), truncLabel(req.Queries[0])))
	release, ok := s.admit(ctx, w)
	if !ok {
		return
	}
	defer release()
	results, err := s.eng.OptimizeBatch(ctx, qs)
	if err != nil {
		writeError(w, statusForError(err), err)
		return
	}
	resp := BatchResponse{Results: make([]OptimizeResponse, len(results))}
	for i, res := range results {
		resp.Results[i] = toOptimizeResponse(res)
	}
	at := tr.StartSpan()
	writeJSON(w, http.StatusOK, resp)
	tr.EndSpan(obs.StageWrite, at)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.eng.CanExecute() {
		writeError(w, http.StatusUnprocessableEntity,
			errors.New("engine has no database; start the server with execution enabled"))
		return
	}
	q, err := sqo.ParseQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	optimize := req.Optimize == nil || *req.Optimize
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	tr := obs.FromContext(ctx)
	tr.MarkFromStart(obs.StageParse)
	tr.SetLabel(truncLabel(req.Query))
	release, ok := s.admit(ctx, w)
	if !ok {
		return
	}
	defer release()
	start := time.Now()
	var out *sqo.Execution
	if optimize {
		out, err = s.eng.Execute(ctx, q)
	} else {
		out, err = s.eng.ExecuteRaw(ctx, q)
	}
	if err != nil {
		writeError(w, statusForError(err), err)
		return
	}
	rows := make([][]string, len(out.Rows))
	for i, row := range out.Rows {
		vals := make([]string, len(row.Values))
		for j, v := range row.Values {
			vals[j] = v.String()
		}
		rows[i] = vals
	}
	at := tr.StartSpan()
	writeJSON(w, http.StatusOK, QueryResponse{
		Rows:           rows,
		RowCount:       len(rows),
		Optimized:      optimize,
		EmptyResult:    out.EmptyProven,
		TuplesScanned:  out.TuplesScanned,
		PagesScanned:   out.Meter.PagesScanned,
		IndexProbes:    out.Meter.IndexProbes,
		ObjectFetches:  out.Meter.ObjectFetches,
		LinkTraversals: out.Meter.LinkTraversals,
		DurationUS:     time.Since(start).Microseconds(),
	})
	tr.EndSpan(obs.StageWrite, at)
}

func (s *Server) handleCatalogSwap(w http.ResponseWriter, r *http.Request) {
	var req SwapRequest
	if !s.decode(w, r, &req) {
		return
	}
	cat, err := sqo.ParseConstraintCatalog(req.Catalog)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.eng.SwapCatalog(cat); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if s.cfg.Store != nil {
		// A swap is not journaled (its delta is planned from the catalog
		// text, and a rebuild restarts the lineage); only a fresh snapshot
		// baseline makes the new generation bootable.
		if err := s.cfg.Store.WriteSnapshot(s.eng); err != nil {
			s.log.Error("catalog swap snapshot failed", "err", err)
			writeError(w, http.StatusInternalServerError,
				fmt.Errorf("catalog swapped in memory but snapshot baseline failed: %w", err))
			return
		}
	}
	st := s.eng.Stats()
	s.log.Info("catalog swapped", "constraints", st.Constraints, "epoch", st.Epoch)
	writeJSON(w, http.StatusOK, SwapResponse{Constraints: st.Constraints, Epoch: st.Epoch})
}

func (s *Server) handleCatalogUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if !s.decode(w, r, &req) {
		return
	}
	d := sqo.NewCatalogDelta()
	for _, line := range req.Add {
		c, err := sqo.ParseConstraint(line)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("add: %w", err))
			return
		}
		d.AddConstraints(c)
	}
	d.RemoveConstraints(req.Remove...)
	for _, id := range slices.Sorted(maps.Keys(req.Replace)) {
		c, err := sqo.ParseConstraint(req.Replace[id])
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("replace %q: %w", id, err))
			return
		}
		d.ReplaceConstraint(id, c)
	}
	if d.Empty() {
		writeError(w, http.StatusBadRequest, errors.New("empty delta"))
		return
	}
	var rep sqo.UpdateReport
	var err error
	if s.cfg.Store != nil {
		rep, err = s.cfg.Store.ApplyAndLog(s.eng, d)
	} else {
		rep, err = s.eng.UpdateCatalog(d)
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	st := s.eng.Stats()
	s.log.Info("catalog updated",
		"added", rep.Added, "removed", rep.Removed, "epoch", rep.Epoch,
		"incremental", rep.Incremental,
		"cache_purged", rep.CachePurged, "cache_survived", rep.CacheSurvived)
	writeJSON(w, http.StatusOK, UpdateResponse{
		Constraints:   st.Constraints,
		Added:         rep.Added,
		Removed:       rep.Removed,
		Epoch:         rep.Epoch,
		Incremental:   rep.Incremental,
		CachePurged:   rep.CachePurged,
		CacheSurvived: rep.CacheSurvived,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// --- plumbing -------------------------------------------------------------

// instrument wraps a handler with request counting, latency recording and
// pipeline tracing. A request carrying X-Sqo-Trace always gets a recorder;
// otherwise the tracer samples one in every TraceSample requests. The
// untraced majority path touches no trace machinery beyond one nil check,
// and the assigned ID is exported up front in X-Sqo-Trace-Id (headers are
// immutable once the handler writes).
func (s *Server) instrument(m *endpointMetrics, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inflight.Add(1)
		defer m.inflight.Add(-1)
		var tr *obs.Trace
		if r.Header.Get("X-Sqo-Trace") != "" {
			tr = s.tracer.Force(start)
		} else {
			tr = s.tracer.Sample(start)
		}
		if tr != nil {
			w.Header().Set("X-Sqo-Trace-Id", strconv.FormatUint(tr.ID(), 10))
			r = r.WithContext(obs.WithTrace(r.Context(), tr))
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		m.requests.Add(1)
		if rec.code >= 400 {
			m.errors.Add(1)
		}
		us := time.Since(start).Microseconds()
		if tr != nil {
			m.hist.observeTraced(us, tr.ID())
			s.tracer.Finish(tr)
		} else {
			m.hist.observe(us)
		}
	}
}

// requestContext maps the per-request deadline onto a context: the client's
// timeout_ms when given (capped at MaxTimeout), the server default
// otherwise, layered on the connection context so a dropped client cancels
// queued work.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// decode reads one JSON body, answering 400 itself on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("request body: %w", err))
		return false
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		writeError(w, http.StatusBadRequest, errors.New("request body: trailing data"))
		return false
	}
	return true
}

func toOptimizeResponse(res *sqo.Result) OptimizeResponse {
	return OptimizeResponse{
		Optimized:           res.Optimized.String(),
		EmptyResult:         res.EmptyResult,
		Fires:               res.Stats.Fires,
		RelevantConstraints: res.Stats.RelevantConstraints,
		DurationUS:          res.Stats.Duration.Microseconds(),
	}
}

// statusForError maps optimization failures onto HTTP statuses: deadline →
// 504, client-gone → 499 (nginx's convention), anything else (validation
// against the schema, contradiction proofs, …) → 422.
func statusForError(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusUnprocessableEntity
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the connection is the only failure mode left here
}

// statusRecorder captures the response status for the metrics wrapper.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}
