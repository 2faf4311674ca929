package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sqo"
)

const testQueryText = `(SELECT {cargo.desc} {} {vehicle.desc = "refrigerated truck"} {collects} {vehicle, cargo})`

// testEngine builds a two-class engine for server tests: a "refrigerated
// truck" constraint whose introduction the indexed cargo.desc makes
// profitable.
func testEngine(t testing.TB, opts ...sqo.EngineOption) *sqo.Engine {
	t.Helper()
	sch := sqo.NewSchemaBuilder().
		Class("vehicle",
			sqo.Attribute{Name: "desc", Type: sqo.KindString}).
		Class("cargo",
			sqo.Attribute{Name: "desc", Type: sqo.KindString, Indexed: true}).
		Relationship("collects", "vehicle", "cargo", sqo.OneToMany).
		MustBuild()
	cat := sqo.MustCatalog(
		sqo.NewConstraint("c1",
			[]sqo.Predicate{sqo.Eq("vehicle", "desc", sqo.StringValue("refrigerated truck"))},
			[]string{"collects"},
			sqo.Eq("cargo", "desc", sqo.StringValue("frozen food"))))
	eng, err := sqo.NewEngine(sch, append([]sqo.EngineOption{sqo.WithCatalog(cat)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = testEngine(t, sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// scrape reads GET /metrics once and returns a lookup of its samples by
// series: the name with its braced labels, exactly as rendered. Looking up
// a series the scrape lacks fails the test.
func scrape(t *testing.T, base string) func(series string) float64 {
	t.Helper()
	resp, raw := postGet(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] == "#" {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		samples[fields[0]] = v
	}
	return func(series string) float64 {
		t.Helper()
		v, ok := samples[series]
		if !ok {
			t.Fatalf("/metrics has no series %s", series)
		}
		return v
	}
}

func TestServerRequiresEngine(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without engine did not error")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}

func TestOptimizeEndpoint(t *testing.T) {
	// Every /optimize is one direct Engine.Optimize call.
	t.Run("direct", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})

		resp, raw := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: testQueryText})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
		}
		var out OptimizeResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if _, err := sqo.ParseQuery(out.Optimized); err != nil {
			t.Fatalf("optimized query does not parse back: %v (%q)", err, out.Optimized)
		}
		// The constraint introduces the indexed cargo.desc predicate.
		if !strings.Contains(out.Optimized, "frozen food") {
			t.Fatalf("expected introduced predicate in %q", out.Optimized)
		}
	})
}

func TestOptimizeParseError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: "(SELECT oops"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestOptimizeInvalidQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := `(SELECT {warehouse.site} {} {} {} {warehouse})`
	resp, _ := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: q})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
}

func TestOptimizeRejectsUnknownFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/optimize", map[string]any{"query": testQueryText, "qeury": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestOptimizeMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := BatchRequest{Queries: []string{testQueryText, testQueryText, testQueryText}}
	resp, raw := postJSON(t, ts.URL+"/optimize/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var out BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(out.Results))
	}
}

func TestBatchEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := postJSON(t, ts.URL+"/optimize/batch", BatchRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d, want 400", resp.StatusCode)
	}
	req := BatchRequest{Queries: []string{testQueryText, "(bad"}}
	if resp, _ := postJSON(t, ts.URL+"/optimize/batch", req); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed member status = %d, want 400", resp.StatusCode)
	}
}

func TestCatalogSwapEndpoint(t *testing.T) {
	eng := testEngine(t, sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	_, ts := newTestServer(t, Config{Engine: eng})

	// Re-render the active catalog plus one rule and swap it in: one new
	// generation. Sending the same text again changes nothing, so the
	// epoch stays.
	var lines []string
	for _, c := range eng.Catalog().All() {
		lines = append(lines, c.String())
	}
	lines = append(lines, `c2: cargo.desc = "frozen food" [collects] -> vehicle.desc = "refrigerated truck"`)
	text := strings.Join(lines, "\n")
	for i := 0; i < 2; i++ {
		resp, raw := postJSON(t, ts.URL+"/catalog/swap", SwapRequest{Catalog: text})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
		}
		var out SwapResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Epoch != 1 || out.Constraints != 2 {
			t.Fatalf("swap %d response = %+v, want epoch 1 and 2 constraints", i+1, out)
		}
	}

	if resp, _ := postJSON(t, ts.URL+"/catalog/swap", SwapRequest{Catalog: "not a constraint"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad catalog status = %d, want 400", resp.StatusCode)
	}
	// A catalog that parses but does not fit the schema is rejected with
	// 422 and the old generation keeps serving.
	bad := `c9: depot.zone = "north" -> depot.kind = "hub"`
	if resp, _ := postJSON(t, ts.URL+"/catalog/swap", SwapRequest{Catalog: bad}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("misfit catalog status = %d, want 422", resp.StatusCode)
	}
	if got := eng.Stats().Epoch; got != 1 {
		t.Fatalf("epoch after failed swap = %d, want 1", got)
	}

	// The text form carries every field a swap compares, Doc included, so
	// swapping the rendered logistics catalog (17 documented rules) into an
	// engine that serves it changes nothing: the epoch stays 0 and the
	// cached result keeps hitting.
	eng, err := sqo.NewEngine(sqo.LogisticsSchema(),
		sqo.WithCatalog(sqo.LogisticsConstraints()), sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	if err != nil {
		t.Fatal(err)
	}
	_, ts = newTestServer(t, Config{Engine: eng})
	optimize := func() {
		t.Helper()
		if resp, raw := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: testQueryText}); resp.StatusCode != http.StatusOK {
			t.Fatalf("optimize status = %d, body %s", resp.StatusCode, raw)
		}
	}
	optimize()

	lines = lines[:0]
	for _, c := range eng.Catalog().All() {
		lines = append(lines, c.String())
	}
	resp, raw := postJSON(t, ts.URL+"/catalog/swap", SwapRequest{Catalog: strings.Join(lines, "\n")})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status = %d, body %s", resp.StatusCode, raw)
	}
	var out SwapResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 0 || out.Constraints != sqo.LogisticsConstraints().Len() {
		t.Fatalf("swap of the served catalog = %+v, want epoch 0 and %d constraints", out, sqo.LogisticsConstraints().Len())
	}
	optimize()
	m := scrape(t, ts.URL)
	if hits, misses := m(`sqo_cache_hits_total{tier="exact"}`), m("sqo_cache_misses_total"); hits != 1 || misses != 1 {
		t.Fatalf("after the swap: %v hits / %v misses, want the cached entry to hit (1 / 1)", hits, misses)
	}
}

// TestEndpointCounters: each request lands in its endpoint's request,
// error and latency series, and the engine's counters ride the same
// scrape. /metrics is the only counter surface: GET /stats is gone and a
// POST to /metrics is refused.
func TestEndpointCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		if resp, raw := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: testQueryText}); resp.StatusCode != http.StatusOK {
			t.Fatalf("optimize status = %d, body %s", resp.StatusCode, raw)
		}
	}
	postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: "(bad"})

	if resp, _ := postJSON(t, ts.URL+"/metrics", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status = %d, want 405", resp.StatusCode)
	}
	if resp, _ := postGet(t, ts.URL+"/stats"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats status = %d, want 404", resp.StatusCode)
	}
	m := scrape(t, ts.URL)
	const ep = `{endpoint="/optimize"}`
	if req, errs := m("sqo_requests_total"+ep), m("sqo_request_errors_total"+ep); req != 4 || errs != 1 {
		t.Fatalf("/optimize series = %v requests / %v errors, want 4 / 1", req, errs)
	}
	// The latency histogram counts all four, and the max lies in the
	// bucket that holds the slowest of them: above the lower edge of the
	// median's bucket, at most the bound of the first bucket holding all.
	n := m("sqo_request_duration_seconds_count" + ep)
	if n != 4 {
		t.Fatalf("latency count = %v, want 4", n)
	}
	maxS := m("sqo_request_duration_max_seconds" + ep)
	var medianLE, topLE float64
	for i := 0; i < expoBuckets && topLE == 0; i++ {
		le := float64(int64(1)<<i) / 1e6
		cum := m(fmt.Sprintf(`sqo_request_duration_seconds_bucket{endpoint="/optimize",le="%s"}`, strconv.FormatFloat(le, 'g', -1, 64)))
		if medianLE == 0 && cum >= n/2 {
			medianLE = le
		}
		if cum == n {
			topLE = le
		}
	}
	if topLE == 0 || maxS < medianLE/2 || maxS > topLE {
		t.Fatalf("latency max %vs inconsistent with buckets (median bucket le %v, all by le %v)", maxS, medianLE, topLE)
	}
	if m("sqo_optimizations_total") == 0 {
		t.Fatal("engine series carry no optimizations")
	}
}

// TestGracefulDrain exercises the documented shutdown order under load:
// http.Server.Shutdown drains in-flight requests (all of which must
// complete 200), then Server.Close stops the monitor.
func TestGracefulDrain(t *testing.T) {
	const n = 24
	s, err := New(Config{
		Engine:        testEngine(t, sqo.WithCache(sqo.CacheConfig{Capacity: 64})),
		MaxConcurrent: 1,
		MaxQueue:      n,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Start()

	// Holding the only admission slot parks every handler in the queue, so
	// the whole fleet is verifiably in flight when the drain starts.
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	codes := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(OptimizeRequest{Query: testQueryText})
			resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}

	// Begin the drain only once every request waits in the queue, and
	// free the slot only once Shutdown has closed the listener.
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests queued", s.adm.Stats().Queued, n)
		}
		time.Sleep(time.Millisecond)
	}
	shutting := make(chan struct{})
	ts.Config.RegisterOnShutdown(func() { close(shutting) })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- ts.Config.Shutdown(ctx) }()
	<-shutting
	release()
	if err := <-shut; err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	s.Close()
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed during drain: %v", i, errs[i])
		}
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d status = %d during drain", i, codes[i])
		}
	}
}

func TestRequestContextTimeouts(t *testing.T) {
	s, err := New(Config{
		Engine:         testEngine(t),
		RequestTimeout: 123 * time.Millisecond,
		MaxTimeout:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	check := func(timeoutMS int64, want time.Duration) {
		t.Helper()
		r := httptest.NewRequest(http.MethodPost, "/optimize", nil)
		ctx, cancel := s.requestContext(r, timeoutMS)
		defer cancel()
		dl, ok := ctx.Deadline()
		if !ok {
			t.Fatal("no deadline set")
		}
		got := time.Until(dl)
		if got > want || got < want-50*time.Millisecond {
			t.Fatalf("timeout_ms=%d: deadline in %v, want ~%v", timeoutMS, got, want)
		}
	}
	check(0, 123*time.Millisecond)   // server default
	check(400, 400*time.Millisecond) // client choice
	check(100000, time.Second)       // capped at MaxTimeout
}

// execTestEngine builds an engine over the generated DB1 logistics instance,
// the smallest world the /query endpoint can execute against.
func execTestEngine(t testing.TB) *sqo.Engine {
	t.Helper()
	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sqo.NewEngine(db.Schema(),
		sqo.WithCatalog(sqo.LogisticsConstraints()),
		sqo.WithCostModel(sqo.NewCostModel(db.Schema(), db.Analyze(), sqo.DefaultWeights)),
		sqo.WithDatabase(db))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: execTestEngine(t)})
	resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{Query: testQueryText})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var out QueryResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Optimized || out.EmptyResult {
		t.Errorf("response flags = %+v, want optimized and non-empty", out)
	}
	if out.RowCount != len(out.Rows) || out.RowCount == 0 {
		t.Errorf("RowCount = %d with %d rows", out.RowCount, len(out.Rows))
	}
	if out.TuplesScanned == 0 {
		t.Error("TuplesScanned = 0; execution did no metered work?")
	}

	// The unoptimized run must return the same multiset of rows.
	off := false
	resp, raw = postJSON(t, ts.URL+"/query", QueryRequest{Query: testQueryText, Optimize: &off})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize=false status = %d, body %s", resp.StatusCode, raw)
	}
	var rawOut QueryResponse
	if err := json.Unmarshal(raw, &rawOut); err != nil {
		t.Fatal(err)
	}
	if rawOut.Optimized {
		t.Error("optimize=false run reported Optimized")
	}
	if rawOut.RowCount != out.RowCount {
		t.Errorf("raw run returned %d rows, optimized %d", rawOut.RowCount, out.RowCount)
	}

	// Both requests land in the endpoint's own series and the engine's
	// execution counters.
	m := scrape(t, ts.URL)
	if req, errs := m(`sqo_requests_total{endpoint="/query"}`), m(`sqo_request_errors_total{endpoint="/query"}`); req != 2 || errs != 0 {
		t.Errorf("/query series = %v requests / %v errors, want 2 / 0", req, errs)
	}
	if execs, tuples := m("sqo_executions_total"), m(`sqo_exec_storage_ops_total{kind="tuples_scanned"}`); execs != 2 || tuples == 0 {
		t.Errorf("execution series = %v executions / %v tuples, want 2 executions with tuples", execs, tuples)
	}
}

func TestQueryWithoutDatabase(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // default engine: no WithDatabase
	resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{Query: testQueryText})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body %s", resp.StatusCode, raw)
	}
}

func TestQueryParseError(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: execTestEngine(t)})
	resp, _ := postJSON(t, ts.URL+"/query", QueryRequest{Query: "(bad"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}
