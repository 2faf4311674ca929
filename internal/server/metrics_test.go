package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"sqo"
	"sqo/internal/obs"
)

// --- histogram edge cases --------------------------------------------------

func TestHistogramSingleObservation(t *testing.T) {
	var h histogram
	h.observe(100)
	if n, maxUS, mean := h.expose("").Count, h.maxUS.Load(), meanUS(&h); n != 1 || maxUS != 100 || mean != 100 {
		t.Fatalf("count %d, max %d, mean %d; want 1, 100, 100", n, maxUS, mean)
	}
	// One observation: every quantile is the single bucket, clamped to max.
	if p50, p95, p99 := quantiles(t, &h); p50 != 100 || p95 != 100 || p99 != 100 {
		t.Fatalf("single-observation quantiles not clamped to max: %d/%d/%d", p50, p95, p99)
	}
}

// Values in the top bucket (bits.Len64 == 63) once produced a negative
// quantile bound from a 63-bit shift; the bound must clamp to the observed
// max instead.
func TestHistogramAllOverflow(t *testing.T) {
	var h histogram
	const huge = int64(1) << 62 // lands in bucket 63
	h.observe(huge)
	h.observe(huge + 1)
	if n := h.expose("").Count; n != 2 {
		t.Fatalf("count = %d", n)
	}
	p50, p95, p99 := quantiles(t, &h)
	for _, q := range []int64{p50, p95, p99} {
		if q != huge+1 {
			t.Fatalf("overflow-bucket quantile = %d, want clamp to max %d (%d/%d/%d)", q, huge+1, p50, p95, p99)
		}
	}
}

func TestHistogramWindowP99Empty(t *testing.T) {
	var h histogram
	var cur histCursor
	h.observe(500)
	if p := h.windowP99(&cur); p <= 0 {
		t.Fatalf("first window p99 = %d, want > 0", p)
	}
	// No traffic since the cursor advanced: no latency signal, not zero ms.
	if p := h.windowP99(&cur); p != 0 {
		t.Fatalf("empty window p99 = %d, want 0", p)
	}
}

// --- exposition form -------------------------------------------------------

func TestHistogramExpose(t *testing.T) {
	var h histogram
	h.observe(3)              // bucket 2 (le 4µs)
	h.observe(900)            // bucket 10 (le 1024µs)
	h.observe(int64(1) << 40) // past expoBuckets: only the +Inf collapse sees it
	s := h.expose(obs.Label("endpoint", "/x"))
	if s.Labels != `endpoint="/x"` || s.Count != 3 {
		t.Fatalf("expose = %+v", s)
	}
	if len(s.Buckets) != expoBuckets+1 {
		t.Fatalf("bucket count = %d, want %d", len(s.Buckets), expoBuckets+1)
	}
	last := s.Buckets[len(s.Buckets)-1]
	if !math.IsInf(last.LE, 1) || last.Cumulative != 3 {
		t.Fatalf("+Inf bucket = %+v", last)
	}
	if got := s.Buckets[expoBuckets-1].Cumulative; got != 2 {
		t.Fatalf("largest explicit bucket cumulative = %d, want 2 (huge value only in +Inf)", got)
	}
	var prev int64
	for i, b := range s.Buckets {
		if b.Cumulative < prev {
			t.Fatalf("bucket %d cumulative %d < previous %d", i, b.Cumulative, prev)
		}
		prev = b.Cumulative
		if i > 0 && !math.IsInf(b.LE, 1) && b.LE <= s.Buckets[i-1].LE {
			t.Fatalf("le bounds not increasing at %d: %v after %v", i, b.LE, s.Buckets[i-1].LE)
		}
	}
	if got := s.SumSeconds; math.Abs(got-float64(3+900+int64(1)<<40)/1e6) > 1e-9 {
		t.Fatalf("sum = %v", got)
	}
}

func TestHistogramExemplar(t *testing.T) {
	var h histogram
	h.observeTraced(900, 41) // bucket 10
	h.observeTraced(0, 0)    // zero trace ID: no exemplar
	s := h.expose("")
	var found bool
	for _, b := range s.Buckets {
		if b.ExemplarID == 41 {
			found = true
			if b.ExemplarValue != 900e-6 {
				t.Fatalf("exemplar value = %v, want 0.0009", b.ExemplarValue)
			}
		}
	}
	if !found {
		t.Fatal("traced observation produced no exemplar")
	}
	if s.Buckets[0].ExemplarID != 0 {
		t.Fatalf("zero trace ID produced exemplar %d", s.Buckets[0].ExemplarID)
	}
	// A newer traced observation in the same bucket replaces the exemplar.
	h.observeTraced(1000, 42)
	s = h.expose("")
	for _, b := range s.Buckets {
		if b.ExemplarID == 41 {
			t.Fatal("stale exemplar survived a newer traced observation in its bucket")
		}
	}
}

// --- /metrics --------------------------------------------------------------

// The exposition guard: everything /metrics serves must pass the strict
// scanner, and every family it exposes must be registered (which enforces
// the sqo_ naming contract at registration time).
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceSample: 1, BootMode: "warm"})
	// Generate some series movement, including a traced request.
	postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: testQueryText})
	postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: testQueryText})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(bytes.NewReader(raw)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, raw)
	}
	names, err := obs.ExpositionNames(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, n := range s.reg.Names() {
		registered[n] = true
	}
	exposed := map[string]bool{}
	for _, n := range names {
		if !registered[n] {
			t.Errorf("exposed family %q is not registered", n)
		}
		exposed[n] = true
	}
	for n := range registered {
		if !exposed[n] {
			t.Errorf("registered family %q missing from exposition", n)
		}
	}
	// The key series of each subsystem must be present with movement where
	// the two optimize calls above imply it.
	body := string(raw)
	for _, want := range []string{
		`sqo_requests_total{endpoint="/optimize"} 2`,
		`sqo_cache_hits_total{tier="exact"} 1`,
		"sqo_optimizations_total 2",
		"sqo_admission_admitted_total 2",
		"sqo_degradation_level 0",
		`sqo_snapshot_boot_info{mode="warm"} 1`,
		`sqo_exec_storage_ops_total{kind="tuples_scanned"}`,
		"sqo_traces_sampled_total 2",
		`sqo_request_duration_seconds_count{endpoint="/optimize"} 2`,
		`sqo_request_duration_max_seconds{endpoint="/optimize"} `,
		`sqo_cache_mode{feature="canonicalize"} 0`,
		`sqo_cache_mode{feature="subsume"} 0`,
		`sqo_index_shape{kind="constraints"} 1`,
		`sqo_index_shape{kind="class_buckets"} `,
		`sqo_index_shape{kind="max_class_posting"} 1`,
		`sqo_index_shape{kind="attr_keys"} `,
		`sqo_admission_limit{kind="concurrent"} 16`,
		`sqo_admission_limit{kind="queue"} 64`,
		"sqo_degradation_p99_baseline_seconds ",
		"sqo_quarantine_strikes_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// /stats is not an endpoint, so no series carries it as a label.
	if strings.Contains(body, `endpoint="/stats"`) {
		t.Error(`exposition still carries endpoint="/stats" series`)
	}
}

// TestMetricsCacheAndIndexFamilies: sqo_cache_mode reports the effective
// cache configuration and sqo_index_shape the served index.
func TestMetricsCacheAndIndexFamilies(t *testing.T) {
	eng := testEngine(t, sqo.WithCache(sqo.CacheConfig{Capacity: 64, Canonicalize: true, Subsume: true}))
	want := eng.Stats()
	_, ts := newTestServer(t, Config{Engine: eng})
	m := scrape(t, ts.URL)
	for series, v := range map[string]bool{
		`sqo_cache_mode{feature="canonicalize"}`: want.Cache.Canonicalize,
		`sqo_cache_mode{feature="subsume"}`:      want.Cache.Subsume,
	} {
		if got := m(series); got != boolGauge(v) || !v {
			t.Errorf("%s = %v, want 1 (engine reports %v)", series, got, v)
		}
	}
	ix := want.ConstraintIndex
	for series, v := range map[string]int{
		`sqo_index_shape{kind="constraints"}`:       ix.Constraints,
		`sqo_index_shape{kind="class_buckets"}`:     ix.ClassBuckets,
		`sqo_index_shape{kind="max_class_posting"}`: ix.MaxClassPosting,
		`sqo_index_shape{kind="attr_keys"}`:         ix.AttrKeys,
	} {
		if got := m(series); got != float64(v) || v == 0 {
			t.Errorf("%s = %v, want the engine's %d (non-zero)", series, got, v)
		}
	}
}

func TestMetricsBootModeDefaultsToNone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), `sqo_snapshot_boot_info{mode="none"} 1`) {
		t.Fatal("boot mode did not default to none")
	}
}

// --- /trace/{id} and /traces ----------------------------------------------

func TestTraceForceAndFetch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(OptimizeRequest{Query: testQueryText})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/optimize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Sqo-Trace", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status = %d", resp.StatusCode)
	}
	idHeader := resp.Header.Get("X-Sqo-Trace-Id")
	if idHeader == "" {
		t.Fatal("forced trace returned no X-Sqo-Trace-Id header")
	}
	id, err := strconv.ParseUint(idHeader, 10, 64)
	if err != nil || id == 0 {
		t.Fatalf("bad trace ID %q", idHeader)
	}

	tresp, err := http.Get(ts.URL + "/trace/" + idHeader)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/trace/%s status = %d", idHeader, tresp.StatusCode)
	}
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(tresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != id || !snap.Forced {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.TotalNS <= 0 || len(snap.Spans) == 0 {
		t.Fatalf("trace has no measurements: %+v", snap)
	}
	stages := map[string]bool{}
	for _, sp := range snap.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"parse", "admission", "cache_probe", "write"} {
		if !stages[want] {
			t.Errorf("trace missing %s span (has %v)", want, stages)
		}
	}
	if snap.Fingerprint == "" {
		t.Error("trace has no fingerprint")
	}
	if !strings.Contains(snap.Query, "SELECT") {
		t.Errorf("trace label = %q", snap.Query)
	}
	totals, sum := snap.StageTotals()
	if sum <= 0 || sum > snap.TotalNS {
		t.Fatalf("stage sum %d vs total %d (%v)", sum, snap.TotalNS, totals)
	}

	// The ring lists it, newest first.
	lresp, err := http.Get(ts.URL + "/traces?n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	// The list carries traces only; the tracer's counters are on /metrics.
	var list tracesResponse
	dec := json.NewDecoder(lresp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&list); err != nil {
		t.Fatal(err)
	}
	if forced := scrape(t, ts.URL)("sqo_traces_forced_total"); forced != 1 {
		t.Fatalf("sqo_traces_forced_total = %v, want 1", forced)
	}
	var listed bool
	for _, tr := range list.Traces {
		if tr.ID == id {
			listed = true
			if !tr.Forced || tr.TotalUS < 0 {
				t.Fatalf("summary = %+v", tr)
			}
		}
	}
	if !listed {
		t.Fatalf("trace %d not in /traces: %+v", id, list.Traces)
	}
}

// The coverage gate: spans are leaves of a non-overlapping decomposition,
// so on a quiet server their sum accounts for at least 90% of the measured
// end-to-end time (the slack is glue code between stages). Retries damp
// scheduler preemption between spans.
func TestTraceSpanCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; skipped in -short")
	}
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(OptimizeRequest{Query: testQueryText})
	var best float64
	for attempt := 0; attempt < 8; attempt++ {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/optimize", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Sqo-Trace", "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Sqo-Trace-Id")
		tresp, err := http.Get(ts.URL + "/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.TraceSnapshot
		err = json.NewDecoder(tresp.Body).Decode(&snap)
		tresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		_, sum := snap.StageTotals()
		if snap.TotalNS <= 0 {
			t.Fatalf("trace %s has no total", id)
		}
		if cov := float64(sum) / float64(snap.TotalNS); cov > best {
			best = cov
		}
		if best >= 0.9 {
			return
		}
	}
	t.Errorf("span coverage peaked at %.0f%% over 8 quiet requests, want >= 90%%", best*100)
}

func TestTraceEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for path, want := range map[string]int{
		"/trace/notanumber": http.StatusBadRequest,
		"/trace/999999":     http.StatusNotFound,
		"/traces?n=0":       http.StatusBadRequest,
		"/traces?n=-3":      http.StatusBadRequest,
		"/traces?n=zz":      http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestUntracedRequestHasNoTraceHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // sampling off
	resp, _ := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: testQueryText})
	if h := resp.Header.Get("X-Sqo-Trace-Id"); h != "" {
		t.Fatalf("untraced request carried X-Sqo-Trace-Id %q", h)
	}
}
