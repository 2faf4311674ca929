package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqo"
	"sqo/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	ten := hundred[:10]
	for _, tc := range []struct {
		name   string
		sorted []int64
		q      float64
		want   int64
	}{
		// Integral q·n: the sample at rank q·n itself.
		{"1..100 p50", hundred, 0.50, 50},
		{"1..100 p95", hundred, 0.95, 95},
		{"1..100 p99", hundred, 0.99, 99},
		{"1..100 p07", hundred, 0.07, 7}, // 0.07·100 rounds to 7.000000000000001
		{"1..100 p100", hundred, 1, 100},
		{"[1,2] p50", []int64{1, 2}, 0.50, 1},
		// Non-integral q·n: rounds the rank up.
		{"1..10 p95", ten, 0.95, 10},
		{"1..10 p55", ten, 0.55, 6},
		{"[1,2,3] p50", []int64{1, 2, 3}, 0.50, 2},
		// Degenerate inputs.
		{"n=1 p50", []int64{7}, 0.50, 7},
		{"n=1 p99", []int64{7}, 0.99, 7},
		{"q=0", ten, 0, 1},
		{"empty", nil, 0.99, 0},
	} {
		if got := percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: percentile = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := []sample{
		{kind: "single", status: http.StatusOK, latencyUS: 30},
		{kind: "single", status: http.StatusOK, latencyUS: 10, retries: 1, sheds: 1},
		{kind: "single", status: http.StatusTooManyRequests, latencyUS: 20, retries: 3, sheds: 4},
		{kind: "single", status: 0, latencyUS: 40}, // transport error
		{kind: "batch", status: http.StatusOK, latencyUS: 100},
		{kind: "batch", status: http.StatusServiceUnavailable, latencyUS: 200},
		{kind: "query", status: http.StatusBadRequest, latencyUS: 50},
		{kind: "swap", status: http.StatusUnprocessableEntity, latencyUS: 900},
		{kind: "update", status: http.StatusOK, latencyUS: 70},
	}
	sum := summarize(samples, 2*time.Second)

	if sum.Requests != 9 || sum.AchievedRPS != 4.5 {
		t.Errorf("requests = %d at %.2f rps, want 9 at 4.50", sum.Requests, sum.AchievedRPS)
	}
	// Batches count -batch-size queries each; swaps and updates count none.
	if want := 4 + 2**batchSize + 1; sum.Queries != want {
		t.Errorf("queries = %d, want %d", sum.Queries, want)
	}
	// Non-2xx splits into transient (transport, 429, 503) and hard.
	if sum.Non2xx != 5 || sum.TransientFailures != 3 || sum.HardFailures != 2 {
		t.Errorf("non-2xx = %d (transient %d, hard %d), want 5 (3, 2)",
			sum.Non2xx, sum.TransientFailures, sum.HardFailures)
	}
	// Shed rate is over attempts: 9 requests plus 4 retries.
	if sum.Retries != 4 || sum.Sheds != 5 || sum.ShedRate != 5.0/13 {
		t.Errorf("retries %d, sheds %d, shed rate %v; want 4, 5, %v", sum.Retries, sum.Sheds, sum.ShedRate, 5.0/13)
	}
	single := sum.Kinds["single"]
	if single.Requests != 4 || single.Non2xx != 2 || single.Retries != 4 || single.Sheds != 5 {
		t.Errorf("single kind = %+v", single)
	}
	if single.P50US != 20 || single.P95US != 40 || single.P99US != 40 || single.MaxUS != 40 {
		t.Errorf("single percentiles = %d/%d/%d max %d, want 20/40/40 max 40",
			single.P50US, single.P95US, single.P99US, single.MaxUS)
	}
	if b := sum.Kinds["batch"]; b.Requests != 2 || b.Non2xx != 1 || b.P50US != 100 || b.MaxUS != 200 {
		t.Errorf("batch kind = %+v", b)
	}
	if len(sum.Kinds) != 5 {
		t.Errorf("kinds = %v, want single, batch, query, swap, update", sum.Kinds)
	}
}

// TestFetchCacheCounters reads the cache series from a fixed exposition:
// values in exponent form parse, and a series the scrape lacks (no
// subsumption hits here) reads 0.
func TestFetchCacheCounters(t *testing.T) {
	const exposition = `# HELP sqo_cache_hits Result-cache hits by tier: exact, canonical, subsumption.
# TYPE sqo_cache_hits counter
sqo_cache_hits_total{tier="exact"} 1.5e+15
sqo_cache_hits_total{tier="canonical"} 42
# HELP sqo_cache_misses Result-cache lookups that fell through to cold optimization.
# TYPE sqo_cache_misses counter
sqo_cache_misses_total 7
# HELP sqo_cache_evictions Result-cache LRU evictions.
# TYPE sqo_cache_evictions counter
sqo_cache_evictions_total 3
# EOF
`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(exposition))
	}))
	defer ts.Close()
	got, err := fetchCacheCounters(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := cacheCounters{Exact: 1_500_000_000_000_000, Canonical: 42, Subsumption: 0, Misses: 7}
	if got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}

	// Against a live server the same series names count a miss and a hit.
	eng, err := sqo.NewEngine(sqo.LogisticsSchema(),
		sqo.WithCatalog(sqo.LogisticsConstraints()), sqo.WithCache(sqo.CacheConfig{Capacity: 8}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Engine: eng, MonitorInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live := httptest.NewServer(s.Handler())
	defer live.Close()
	rng := rand.New(rand.NewSource(1))
	q := `(SELECT {cargo.desc} {} {vehicle.desc = "refrigerated truck"} {collects} {vehicle, cargo})`
	for i := 0; i < 2; i++ {
		if r := sendSingle(live.Client(), rng, live.URL, q, false); !is2xx(r.status) {
			t.Fatalf("optimize %d status = %d", i, r.status)
		}
	}
	if got, err = fetchCacheCounters(live.Client(), live.URL); err != nil || got != (cacheCounters{Exact: 1, Misses: 1}) {
		t.Fatalf("live counters = %+v, %v; want 1 exact hit and 1 miss", got, err)
	}
}

// logisticsDaemon serves the logistics world from an in-process server, the
// catalog sqoload's -swap reinstalls and its -mutate rules extend.
func logisticsDaemon(t *testing.T) string {
	t.Helper()
	eng, err := sqo.NewEngine(sqo.LogisticsSchema(), sqo.WithCatalog(sqo.LogisticsConstraints()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Engine: eng, MonitorInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

// TestSwapBetweenDeltas lands the -swap between a delta's add and its
// remove: the swap drops the added rule, so the mutator must add a fresh
// rule next rather than remove one the daemon no longer has.
func TestSwapBetweenDeltas(t *testing.T) {
	base := logisticsDaemon(t)
	m := newMutator(&http.Client{Timeout: 5 * time.Second}, base, 1, time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	for i, s := range []sample{m.step(), m.swap(rng), m.step(), m.step(), m.step()} {
		if !is2xx(s.status) {
			t.Fatalf("write %d (%s) = %d, want 2xx", i, s.kind, s.status)
		}
	}
	if m.seq != 3 || !m.live {
		t.Fatalf("after add, swap, add, remove, add: seq %d live %v, want zload3 live", m.seq, m.live)
	}
}

// TestSwapRacesMutator runs the -mutate loop flat out while swaps land at
// arbitrary points, as sqoload -swap -mutate does; every write must be 2xx.
func TestSwapRacesMutator(t *testing.T) {
	base := logisticsDaemon(t)
	client := &http.Client{Timeout: 5 * time.Second}
	m := newMutator(client, base, 1, time.Millisecond)

	var mu sync.Mutex
	var got []sample
	record := func(s sample) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.run(&stop, record)
	}()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
		record(m.swap(rng))
	}
	stop.Store(true)
	<-done

	updates := 0
	for i, s := range got {
		if !is2xx(s.status) {
			t.Fatalf("write %d (%s) = %d, want 2xx", i, s.kind, s.status)
		}
		if s.kind == "update" {
			updates++
		}
	}
	if updates == 0 {
		t.Fatal("the mutator sent no deltas")
	}
}
