// Command sqoload drives a running sqod with a sqogen-style workload and
// reports latency percentiles. It replays path queries generated exactly
// the way the paper's evaluation does (same generator, same seeds — or a
// file emitted by `sqogen -n 40 -emit queries.txt`) from a fleet of
// concurrent clients at a target aggregate QPS, mixing single /optimize
// requests with client-side /optimize/batch batches (and, under -query-frac,
// end-to-end POST /query executions), optionally hot-swapping
// the constraint catalog mid-run (-swap) or interleaving small incremental
// /catalog/update deltas at a configured rate (-mutate), and prints
// p50/p95/p99 per traffic kind plus a machine-readable JSON summary. Under
// -mutate, update latency is reported as its own traffic kind, and the
// summary carries the post-mutation cache hit-rate — the engine's
// incremental catalog path exercised end to end.
//
// Usage:
//
//	sqoload -addr http://localhost:7411 -clients 8 -duration 10s -qps 500
//	sqoload -workload queries.txt -batch-frac 0.3 -swap -json summary.json
//	sqoload -mutate -mutate-interval 250ms -duration 30s
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqo"
	"sqo/internal/obs"
)

var (
	addr         = flag.String("addr", "http://localhost:7411", "base URL of the sqod daemon")
	clients      = flag.Int("clients", 8, "concurrent client goroutines")
	duration     = flag.Duration("duration", 10*time.Second, "how long to drive traffic")
	qps          = flag.Float64("qps", 0, "target aggregate requests/second (0 = as fast as possible)")
	batchFrac    = flag.Float64("batch-frac", 0.2, "fraction of requests sent as /optimize/batch")
	queryFrac    = flag.Float64("query-frac", 0, "fraction of requests sent as end-to-end POST /query executions (needs sqod -db)")
	batchSize    = flag.Int("batch-size", 8, "queries per batch request")
	swap         = flag.Bool("swap", false, "hot-swap the constraint catalog halfway through the run")
	mutate       = flag.Bool("mutate", false, "interleave incremental POST /catalog/update deltas into the run (logistics world)")
	mutateEvery  = flag.Duration("mutate-interval", 500*time.Millisecond, "delay between catalog deltas under -mutate")
	seed         = flag.Int64("seed", 41, "workload seed (matches sqogen)")
	dbName       = flag.String("db", "DB1", "database instance used to generate the workload")
	poolSize     = flag.Int("pool", 64, "distinct queries in the replay pool")
	nearDup      = flag.Bool("near-dup", false, "expand the replay pool with near-duplicate variants of every query (shuffled lists, duplicated conjuncts, contained specializations) to exercise sqod's -cache-canon/-cache-subsume paths")
	workloadFile = flag.String("workload", "", "replay queries from this file (one per line, as emitted by sqogen -emit) instead of generating")
	timeout      = flag.Duration("timeout", 5*time.Second, "per-request client timeout")
	jsonOut      = flag.String("json", "", "also write the JSON summary to this file ('-' for stdout)")
	retries      = flag.Int("retries", 3, "max retries per request on 429/503/transport errors (0 disables)")
	retryBase    = flag.Duration("retry-base", 50*time.Millisecond, "backoff before the first retry (doubles per attempt, ±50% jitter)")
	retryCap     = flag.Duration("retry-cap", 2*time.Second, "upper bound on a single backoff sleep, including server Retry-After hints")
	traceSample  = flag.Int("trace-sample", 0, "force-trace one in every N single requests (X-Sqo-Trace) and print the per-stage time breakdown in the summary (0 disables)")
)

// maxTraceFetch caps how many finished traces the summary pulls back from
// GET /trace/{id} — enough for a stable stage profile without hammering the
// daemon after the run.
const maxTraceFetch = 64

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sqoload:", err)
		os.Exit(1)
	}
}

// sample is one completed request: the final attempt's status and latency,
// plus how many retries it took and how many 429 sheds it saw along the way.
// traceID is the server-assigned pipeline trace (0 for untraced requests).
type sample struct {
	kind      string // "single", "batch", "swap"
	status    int
	latencyUS int64
	retries   int
	sheds     int
	traceID   uint64
}

// transient reports whether a final status should be retried and, at the end
// of the run, tolerated: transport errors (status 0), overload sheds (429),
// and unavailability (503) are expected under deliberate overload and chaos
// testing — the load generator's job is to measure them, not die on them.
func transient(status int) bool {
	return status == 0 || status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// is2xx reports a 2xx status.
func is2xx(status int) bool { return status >= 200 && status <= 299 }

// kindSummary aggregates one traffic kind for the report.
type kindSummary struct {
	Requests int   `json:"requests"`
	Non2xx   int   `json:"non_2xx"`
	Retries  int   `json:"retries,omitempty"`
	Sheds    int   `json:"sheds,omitempty"`
	P50US    int64 `json:"p50_us"`
	P95US    int64 `json:"p95_us"`
	P99US    int64 `json:"p99_us"`
	MaxUS    int64 `json:"max_us"`
}

// summary is the machine-readable run report. Under -mutate, the "update"
// kind carries the catalog-delta latency percentiles (separate from query
// traffic) and PostMutationHitRate reports the engine's cache hit-rate over
// the window from the first delta to the end of the run — the measured
// survival of the surgically invalidated cache.
type summary struct {
	Timestamp           string                 `json:"timestamp"`
	Addr                string                 `json:"addr"`
	Clients             int                    `json:"clients"`
	TargetQPS           float64                `json:"target_qps"`
	DurationS           float64                `json:"duration_s"`
	Requests            int                    `json:"requests"`
	Queries             int                    `json:"queries"` // batches count batch-size queries
	Non2xx              int                    `json:"non_2xx"`
	TransientFailures   int                    `json:"transient_failures"` // final status still 429/503/transport after retries
	HardFailures        int                    `json:"hard_failures"`      // final status non-2xx and non-retryable
	Retries             int                    `json:"retries"`            // extra attempts across all requests
	Sheds               int                    `json:"sheds"`              // 429 responses observed, including retried ones
	ShedRate            float64                `json:"shed_rate"`          // sheds / total attempts (requests + retries)
	AchievedRPS         float64                `json:"achieved_rps"`
	Kinds               map[string]kindSummary `json:"kinds"`
	Updates             int                    `json:"updates,omitempty"`
	PostMutationHitRate *float64               `json:"post_mutation_hit_rate,omitempty"`
	Cache               *cacheBreakdown        `json:"cache,omitempty"`
	DegradationLevel    *int                   `json:"degradation_level,omitempty"`
	DegradationName     string                 `json:"degradation_name,omitempty"`
	Trace               *traceReport           `json:"trace,omitempty"`
}

// traceReport aggregates the force-traced requests of a -trace-sample run:
// per-stage totals across every fetched trace, and how much of the measured
// end-to-end time the recorded spans account for (glue code between stages
// is the remainder).
type traceReport struct {
	Traces     int            `json:"traces"`
	TotalUS    int64          `json:"total_us"`
	StageSumUS int64          `json:"stage_sum_us"`
	Coverage   float64        `json:"coverage"` // stage_sum_us / total_us
	Stages     []stageSummary `json:"stages"`
}

// stageSummary is one pipeline stage's share of the traced time.
type stageSummary struct {
	Stage   string  `json:"stage"`
	TotalUS int64   `json:"total_us"`
	Share   float64 `json:"share"` // of TotalUS (end-to-end), not of the stage sum
}

// cacheBreakdown is the engine's three-way cache hit split over the run —
// the deltas of the daemon's cumulative counters between start and finish.
// Canonical and subsumption hits only show up when sqod runs with
// -cache-canon / -cache-subsume; against a -near-dup pool they are the
// fraction of traffic the semantic cache rescued from cold optimization.
type cacheBreakdown struct {
	ExactHits       int64   `json:"exact_hits"`
	CanonicalHits   int64   `json:"canonical_hits"`
	SubsumptionHits int64   `json:"subsumption_hits"`
	Misses          int64   `json:"misses"`
	HitRate         float64 `json:"hit_rate"`
}

func run() error {
	queries, err := loadQueries()
	if err != nil {
		return err
	}
	base := strings.TrimRight(*addr, "/")
	client := &http.Client{Timeout: *timeout}

	if err := waitHealthy(client, base); err != nil {
		return err
	}
	startCtrs, err := fetchCacheCounters(client, base)
	ctrsOK := err == nil

	var (
		mu      sync.Mutex
		samples []sample
		stop    atomic.Bool
	)
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	// Pace the fleet: each client sleeps clients/qps between sends so the
	// aggregate converges on the target.
	var interval time.Duration
	if *qps > 0 {
		interval = time.Duration(float64(*clients) / *qps * float64(time.Second))
	}

	start := time.Now()
	var singles atomic.Int64 // shared so the fleet traces an even 1-in-N
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(c)))
			for !stop.Load() {
				switch roll := rng.Float64(); {
				case roll < *batchFrac:
					record(sendBatch(client, rng, base, pick(rng, queries, *batchSize)))
				case roll < *batchFrac+*queryFrac:
					record(sendQuery(client, rng, base, queries[rng.Intn(len(queries))]))
				default:
					trace := *traceSample > 0 && singles.Add(1)%int64(*traceSample) == 0
					record(sendSingle(client, rng, base, queries[rng.Intn(len(queries))], trace))
				}
				if interval > 0 {
					// Jitter ±25% so the fleet doesn't phase-lock.
					d := interval + time.Duration((rng.Float64()-0.5)*0.5*float64(interval))
					time.Sleep(d)
				}
			}
		}(c)
	}

	// The swap goes through the mutator, which serializes it against the
	// -mutate deltas.
	mut := newMutator(client, base, *seed, *mutateEvery)
	if *swap {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed ^ 0x5eed))
			select {
			case <-time.After(*duration / 2):
				record(mut.swap(rng))
			case <-waitDone(&stop):
			}
		}()
	}
	if *mutate {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mut.run(&stop, record)
		}()
	}

	time.Sleep(*duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	sum := summarize(samples, elapsed)
	if endCtrs, err := fetchCacheCounters(client, base); ctrsOK && err == nil {
		d := cacheBreakdown{
			ExactHits:       endCtrs.Exact - startCtrs.Exact,
			CanonicalHits:   endCtrs.Canonical - startCtrs.Canonical,
			SubsumptionHits: endCtrs.Subsumption - startCtrs.Subsumption,
			Misses:          endCtrs.Misses - startCtrs.Misses,
		}
		if total := d.ExactHits + d.CanonicalHits + d.SubsumptionHits + d.Misses; total > 0 {
			d.HitRate = float64(d.ExactHits+d.CanonicalHits+d.SubsumptionHits) / float64(total)
			sum.Cache = &d
		}
	}
	if *mutate {
		sum.Updates = mut.sent
		if rate, ok := mut.hitRate(client, base); ok {
			sum.PostMutationHitRate = &rate
		}
	}
	if level, name, err := fetchLadder(client, base); err == nil {
		sum.DegradationLevel = &level
		sum.DegradationName = name
	}
	sum.Trace = fetchTraces(client, base, samples)
	printHuman(sum)
	if err := writeJSON(sum); err != nil {
		return err
	}
	// Exit non-zero only on hard failures (non-retryable non-2xx) or a run
	// that got nothing through, so CI smoke steps that shell out to sqoload
	// actually fail. Transient outcomes — 429 sheds, 503s, transport errors —
	// are the expected face of deliberate overload and chaos testing: they
	// are counted and reported, not fatal.
	if sum.HardFailures > 0 {
		return fmt.Errorf("%d of %d requests failed hard (non-retryable non-2xx)", sum.HardFailures, sum.Requests)
	}
	if sum.Requests == 0 {
		return fmt.Errorf("no requests completed")
	}
	if sum.Non2xx == sum.Requests {
		return fmt.Errorf("all %d requests failed (%d transient)", sum.Requests, sum.TransientFailures)
	}
	return nil
}

// waitDone adapts the stop flag to a channel for the swap timer's select.
func waitDone(stop *atomic.Bool) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		for !stop.Load() {
			time.Sleep(10 * time.Millisecond)
		}
		close(ch)
	}()
	return ch
}

// loadQueries builds the replay pool: a workload file, or the generator the
// paper's evaluation (and sqogen) uses. Under -near-dup every pool entry is
// followed by near-duplicate variants: a canonical rewrite (lists shuffled,
// one conjunct duplicated) that only a canonicalizing cache collapses, and —
// in the generated path, where the schema is known — a contained
// specialization (one extra conjunct on an attribute the query never
// touches) that only a subsuming cache can answer warm.
func loadQueries() ([]string, error) {
	rng := rand.New(rand.NewSource(*seed))
	if *workloadFile != "" {
		data, err := os.ReadFile(*workloadFile)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			q, err := sqo.ParseQuery(line)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", *workloadFile, err)
			}
			out = append(out, line)
			if *nearDup {
				out = append(out, permutedDup(q, rng).String())
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("%s: no queries", *workloadFile)
		}
		return out, nil
	}
	var cfg sqo.DBConfig
	found := false
	for _, c := range sqo.DBConfigs() {
		if strings.EqualFold(c.Name, *dbName) {
			cfg, found = c, true
		}
	}
	if !found {
		return nil, fmt.Errorf("unknown database %q (want DB1..DB4)", *dbName)
	}
	db, err := sqo.GenerateDatabase(cfg)
	if err != nil {
		return nil, err
	}
	gen := sqo.NewWorkloadGenerator(db, sqo.LogisticsConstraints(), sqo.WorkloadOptions{Seed: *seed})
	qs, err := gen.Workload(*poolSize)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(qs))
	for _, q := range qs {
		out = append(out, q.String())
		if *nearDup {
			out = append(out, permutedDup(q, rng).String())
			if spec, ok := specialize(db.Schema(), q, rng); ok {
				out = append(out, spec.String())
			}
		}
	}
	return out, nil
}

// cloneQuery deep-copies a query's lists so variants never alias the pool.
func cloneQuery(q *sqo.Query) *sqo.Query {
	return &sqo.Query{
		Project:       append([]sqo.AttrRef(nil), q.Project...),
		Joins:         append([]sqo.Predicate(nil), q.Joins...),
		Selects:       append([]sqo.Predicate(nil), q.Selects...),
		Relationships: append([]string(nil), q.Relationships...),
		Classes:       append([]string(nil), q.Classes...),
	}
}

// permutedDup shuffles every list of q and duplicates one conjunct — a
// syntactic near-duplicate that misses an exact-fingerprint cache but lands
// on the same slot under canonicalization.
func permutedDup(q *sqo.Query, rng *rand.Rand) *sqo.Query {
	v := cloneQuery(q)
	if len(v.Selects) > 0 {
		v.Selects = append(v.Selects, v.Selects[rng.Intn(len(v.Selects))])
	} else if len(v.Joins) > 0 {
		v.Joins = append(v.Joins, v.Joins[rng.Intn(len(v.Joins))])
	}
	rng.Shuffle(len(v.Project), func(i, j int) { v.Project[i], v.Project[j] = v.Project[j], v.Project[i] })
	rng.Shuffle(len(v.Joins), func(i, j int) { v.Joins[i], v.Joins[j] = v.Joins[j], v.Joins[i] })
	rng.Shuffle(len(v.Selects), func(i, j int) { v.Selects[i], v.Selects[j] = v.Selects[j], v.Selects[i] })
	rng.Shuffle(len(v.Relationships), func(i, j int) {
		v.Relationships[i], v.Relationships[j] = v.Relationships[j], v.Relationships[i]
	})
	rng.Shuffle(len(v.Classes), func(i, j int) { v.Classes[i], v.Classes[j] = v.Classes[j], v.Classes[i] })
	return v
}

// specialize appends one selective conjunct on an attribute the query never
// touches — a strictly contained query. Whether the daemon can actually
// derive it from the cached generalization depends on its catalog (the
// engine bails to cold optimization when the attribute is
// constraint-mentioned), which is exactly the mix real near-duplicate
// traffic presents.
func specialize(sch *sqo.Schema, q *sqo.Query, rng *rand.Rand) (*sqo.Query, bool) {
	for _, off := range rng.Perm(len(q.Classes)) {
		class := q.Classes[off]
		for _, at := range sch.EffectiveAttributes(class) {
			ref := sqo.AttrRef{Class: class, Attr: at.Name}
			if queryTouches(q, ref) {
				continue
			}
			var v sqo.Value
			switch at.Type {
			case sqo.KindInt:
				v = sqo.IntValue(7)
			case sqo.KindFloat:
				v = sqo.FloatValue(7.5)
			case sqo.KindString:
				v = sqo.StringValue("zz-near-dup")
			case sqo.KindBool:
				v = sqo.BoolValue(true)
			default:
				continue
			}
			spec := cloneQuery(q)
			spec.Selects = append(spec.Selects, sqo.Sel(class, at.Name, sqo.OpEQ, v))
			return spec, true
		}
	}
	return nil, false
}

func queryTouches(q *sqo.Query, ref sqo.AttrRef) bool {
	for _, a := range q.Project {
		if a == ref {
			return true
		}
	}
	for _, p := range q.Selects {
		if p.Left == ref {
			return true
		}
	}
	for _, p := range q.Joins {
		if p.Left == ref || p.RightAttr == ref {
			return true
		}
	}
	return false
}

func pick(rng *rand.Rand, pool []string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

func waitHealthy(client *http.Client, base string) error {
	var lastErr error
	for i := 0; i < 50; i++ {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("healthz: status %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("daemon not healthy: %w", lastErr)
}

// post sends one logical request with bounded retries: transient outcomes
// (429/503/transport error) back off exponentially with ±50% jitter — or by
// the server's Retry-After hint when it is longer — and try again, up to
// -retries times. The returned sample carries the final attempt's status and
// latency plus the retry and shed counts accumulated across attempts.
func post(client *http.Client, rng *rand.Rand, url string, body any, kind string) sample {
	return postTraced(client, rng, url, body, kind, false)
}

// postTraced is post with an optional X-Sqo-Trace header forcing a pipeline
// trace; the server-assigned trace ID lands in the sample.
func postTraced(client *http.Client, rng *rand.Rand, url string, body any, kind string, trace bool) sample {
	data, err := json.Marshal(body)
	if err != nil {
		return sample{kind: kind, status: 0}
	}
	var sheds int
	for attempt := 0; ; attempt++ {
		s, retryAfter := postOnce(client, url, data, kind, trace)
		if s.status == http.StatusTooManyRequests {
			sheds++
		}
		s.retries, s.sheds = attempt, sheds
		if !transient(s.status) || attempt >= *retries {
			return s
		}
		d := *retryBase << attempt
		if retryAfter > d {
			d = retryAfter
		}
		if d > *retryCap {
			d = *retryCap
		}
		d += time.Duration((rng.Float64() - 0.5) * float64(d))
		time.Sleep(d)
	}
}

// postOnce is a single attempt; the second return is the parsed Retry-After
// header (0 when absent), the server's own estimate of when capacity frees.
func postOnce(client *http.Client, url string, data []byte, kind string, trace bool) (sample, time.Duration) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return sample{kind: kind, status: 0}, 0
	}
	req.Header.Set("Content-Type", "application/json")
	if trace {
		req.Header.Set("X-Sqo-Trace", "1")
	}
	start := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(start).Microseconds()
	if err != nil {
		return sample{kind: kind, status: 0, latencyUS: lat}, 0
	}
	io.Copy(io.Discard, resp.Body)
	var retryAfter time.Duration
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	var traceID uint64
	if id, err := strconv.ParseUint(resp.Header.Get("X-Sqo-Trace-Id"), 10, 64); err == nil {
		traceID = id
	}
	resp.Body.Close()
	return sample{kind: kind, status: resp.StatusCode, latencyUS: lat, traceID: traceID}, retryAfter
}

func sendSingle(client *http.Client, rng *rand.Rand, base, query string, trace bool) sample {
	return postTraced(client, rng, base+"/optimize", map[string]any{"query": query}, "single", trace)
}

func sendBatch(client *http.Client, rng *rand.Rand, base string, queries []string) sample {
	return post(client, rng, base+"/optimize/batch", map[string]any{"queries": queries}, "batch")
}

func sendQuery(client *http.Client, rng *rand.Rand, base, query string) sample {
	return post(client, rng, base+"/query", map[string]any{"query": query}, "query")
}

// mutator owns the run's catalog writes. Under -mutate, every
// -mutate-interval it POSTs one small /catalog/update delta, alternating
// between adding a fresh synthetic intra-class vehicle rule and removing it
// again, so the catalog size stays bounded while every delta is a real
// generation change. The -swap request goes through it too: a swap
// reinstalls the plain logistics catalog, which drops the live synthetic
// rule, so the next delta must add a fresh rule instead of removing one
// that is gone. Before the first delta it snapshots the engine's cache
// counters, so the run can report the post-mutation hit-rate — how much of
// the cache the surgical invalidation kept alive.
type mutator struct {
	client *http.Client
	base   string
	rng    *rand.Rand
	every  time.Duration

	// mu serializes deltas and the swap from request to response, so
	// live always matches the daemon's catalog.
	mu   sync.Mutex
	live bool // zload<seq> is in the daemon's catalog
	seq  int
	sent int

	baseline  cacheCounters
	baselined bool
}

func newMutator(client *http.Client, base string, seed int64, every time.Duration) *mutator {
	return &mutator{client: client, base: base, rng: rand.New(rand.NewSource(seed ^ 0x30d1f)), every: every}
}

func (m *mutator) run(stop *atomic.Bool, record func(sample)) {
	for !stop.Load() {
		time.Sleep(m.every)
		if stop.Load() {
			return
		}
		if !m.baselined {
			if ctrs, err := fetchCacheCounters(m.client, m.base); err == nil {
				m.baseline, m.baselined = ctrs, true
			}
		}
		record(m.step())
	}
}

// step sends one delta: it removes the live synthetic rule, or adds a
// fresh one when none is live.
func (m *mutator) step() sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	var body map[string]any
	if m.live {
		body = map[string]any{"remove": []string{fmt.Sprintf("zload%d", m.seq)}}
	} else {
		m.seq++
		line := fmt.Sprintf("zload%d: vehicle.desc = %q -> vehicle.capacity <= %d",
			m.seq, fmt.Sprintf("load-mut-%d", m.seq), 100+m.seq)
		body = map[string]any{"add": []string{line}}
	}
	s := post(m.client, m.rng, m.base+"/catalog/update", body, "update")
	if is2xx(s.status) {
		m.live = !m.live
	}
	m.sent++
	return s
}

// swap sends the -swap request; once it succeeds no synthetic rule is live.
func (m *mutator) swap(rng *rand.Rand) sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := sendSwap(m.client, rng, m.base)
	if is2xx(s.status) {
		m.live = false
	}
	return s
}

// hitRate reports the engine's cache hit-rate since the first delta.
func (m *mutator) hitRate(client *http.Client, base string) (float64, bool) {
	if !m.baselined {
		return 0, false
	}
	ctrs, err := fetchCacheCounters(client, base)
	if err != nil {
		return 0, false
	}
	dh, dm := ctrs.hits()-m.baseline.hits(), ctrs.Misses-m.baseline.Misses
	if dh+dm <= 0 {
		return 0, false
	}
	return float64(dh) / float64(dh+dm), true
}

// cacheCounters is a point-in-time read of the engine's cumulative cache
// counters, with the three-way hit breakdown.
type cacheCounters struct {
	Exact, Canonical, Subsumption, Misses int64
}

func (c cacheCounters) hits() int64 { return c.Exact + c.Canonical + c.Subsumption }

// fetchCacheCounters reads the engine's cumulative cache counters from
// GET /metrics: sqo_cache_hits_total by tier and sqo_cache_misses_total. A
// series the scrape lacks reads 0.
func fetchCacheCounters(client *http.Client, base string) (cacheCounters, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return cacheCounters{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return cacheCounters{}, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return cacheCounters{}, err
	}
	var c cacheCounters
	series := map[string]*int64{
		`sqo_cache_hits_total{tier="exact"}`:       &c.Exact,
		`sqo_cache_hits_total{tier="canonical"}`:   &c.Canonical,
		`sqo_cache_hits_total{tier="subsumption"}`: &c.Subsumption,
		"sqo_cache_misses_total":                   &c.Misses,
	}
	for _, line := range strings.Split(string(raw), "\n") {
		name, val, ok := strings.Cut(line, " ")
		dst := series[name]
		if !ok || dst == nil {
			continue
		}
		// Values are floats: the renderer writes large counts in exponent
		// form.
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return cacheCounters{}, fmt.Errorf("GET /metrics: %s: %w", name, err)
		}
		*dst = int64(v)
	}
	return c, nil
}

// fetchLadder reads the degradation ladder level the daemon ends the run at
// from GET /readyz (which reports it at any status, draining included).
func fetchLadder(client *http.Client, base string) (int, string, error) {
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var body struct {
		DegradationLevel int    `json:"degradation_level"`
		DegradationName  string `json:"degradation_name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, "", err
	}
	return body.DegradationLevel, body.DegradationName, nil
}

// fetchTraces pulls back the span breakdowns of up to maxTraceFetch traced
// requests (newest first, while the daemon's ring still holds them) and
// aggregates them into the per-stage report. Nil when the run traced
// nothing or every fetch missed the ring.
func fetchTraces(client *http.Client, base string, samples []sample) *traceReport {
	var ids []uint64
	for i := len(samples) - 1; i >= 0 && len(ids) < maxTraceFetch; i-- {
		if samples[i].traceID != 0 {
			ids = append(ids, samples[i].traceID)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	rep := &traceReport{}
	stageNS := map[string]int64{}
	var totalNS, sumNS int64
	for _, id := range ids {
		resp, err := client.Get(fmt.Sprintf("%s/trace/%d", base, id))
		if err != nil {
			continue
		}
		var snap struct {
			TotalNS int64 `json:"total_ns"`
			Spans   []struct {
				Stage string `json:"stage"`
				DurNS int64  `json:"dur_ns"`
			} `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		rep.Traces++
		totalNS += snap.TotalNS
		for _, sp := range snap.Spans {
			stageNS[sp.Stage] += sp.DurNS
			sumNS += sp.DurNS
		}
	}
	if rep.Traces == 0 {
		return nil
	}
	rep.TotalUS, rep.StageSumUS = totalNS/1000, sumNS/1000
	for _, name := range obs.StageNames() {
		ns, ok := stageNS[name]
		if !ok {
			continue
		}
		st := stageSummary{Stage: name, TotalUS: ns / 1000}
		if totalNS > 0 {
			st.Share = float64(ns) / float64(totalNS)
		}
		rep.Stages = append(rep.Stages, st)
	}
	if totalNS > 0 {
		rep.Coverage = float64(sumNS) / float64(totalNS)
	}
	return rep
}

// sendSwap re-renders the logistics constraint catalog and swaps it in. The
// text form carries every field a swap compares, so against the catalog
// sqod boots with the swap publishes nothing and keeps the epoch. Under
// -mutate it also removes the live synthetic rule, a patch whose sweep
// drops only the cached entries that rule reaches.
func sendSwap(client *http.Client, rng *rand.Rand, base string) sample {
	var lines []string
	for _, c := range sqo.LogisticsConstraints().All() {
		lines = append(lines, c.String())
	}
	return post(client, rng, base+"/catalog/swap", map[string]any{"catalog": strings.Join(lines, "\n")}, "swap")
}

func summarize(samples []sample, elapsed time.Duration) summary {
	sum := summary{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Addr:      *addr,
		Clients:   *clients,
		TargetQPS: *qps,
		DurationS: elapsed.Seconds(),
		Requests:  len(samples),
		Kinds:     map[string]kindSummary{},
	}
	byKind := map[string][]int64{}
	for _, s := range samples {
		k := sum.Kinds[s.kind]
		k.Requests++
		k.Retries += s.retries
		k.Sheds += s.sheds
		sum.Retries += s.retries
		sum.Sheds += s.sheds
		if !is2xx(s.status) {
			k.Non2xx++
			sum.Non2xx++
			if transient(s.status) {
				sum.TransientFailures++
			} else {
				sum.HardFailures++
			}
		}
		sum.Kinds[s.kind] = k
		byKind[s.kind] = append(byKind[s.kind], s.latencyUS)
		if s.kind == "batch" {
			sum.Queries += *batchSize
		} else if s.kind == "single" || s.kind == "query" {
			sum.Queries++
		}
	}
	for kind, lats := range byKind {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		k := sum.Kinds[kind]
		k.P50US = percentile(lats, 0.50)
		k.P95US = percentile(lats, 0.95)
		k.P99US = percentile(lats, 0.99)
		k.MaxUS = lats[len(lats)-1]
		sum.Kinds[kind] = k
	}
	if elapsed > 0 {
		sum.AchievedRPS = float64(len(samples)) / elapsed.Seconds()
	}
	if attempts := sum.Requests + sum.Retries; attempts > 0 {
		sum.ShedRate = float64(sum.Sheds) / float64(attempts)
	}
	return sum
}

// percentile returns the exact nearest-rank percentile of sorted latencies:
// the smallest sample with at least a q fraction of all samples at or below
// it, which is the one at 1-based rank ⌈q·n⌉.
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon absorbs binary rounding of q·n (0.07·100 evaluates to
	// 7.000000000000001), which would otherwise push an integral rank up one.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	return sorted[min(max(rank, 1), n)-1]
}

func printHuman(sum summary) {
	fmt.Printf("sqoload: %d requests (%d queries) in %.1fs against %s — %.1f req/s, %d non-2xx\n",
		sum.Requests, sum.Queries, sum.DurationS, sum.Addr, sum.AchievedRPS, sum.Non2xx)
	if sum.Retries > 0 || sum.Sheds > 0 {
		fmt.Printf("  overload: %d sheds (%.1f%% of attempts), %d retries, %d transient / %d hard failures after retry\n",
			sum.Sheds, sum.ShedRate*100, sum.Retries, sum.TransientFailures, sum.HardFailures)
	}
	if c := sum.Cache; c != nil {
		fmt.Printf("  cache: %.1f%% hit-rate (%d exact / %d canonical / %d subsumption hits, %d misses)\n",
			c.HitRate*100, c.ExactHits, c.CanonicalHits, c.SubsumptionHits, c.Misses)
	}
	if sum.Updates > 0 {
		if sum.PostMutationHitRate != nil {
			fmt.Printf("  %d catalog deltas applied; post-mutation cache hit-rate %.1f%%\n",
				sum.Updates, *sum.PostMutationHitRate*100)
		} else {
			fmt.Printf("  %d catalog deltas applied\n", sum.Updates)
		}
	}
	kinds := make([]string, 0, len(sum.Kinds))
	for k := range sum.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		k := sum.Kinds[kind]
		fmt.Printf("  %-7s n=%-6d non2xx=%-3d p50=%s p95=%s p99=%s max=%s\n",
			kind, k.Requests, k.Non2xx,
			usStr(k.P50US), usStr(k.P95US), usStr(k.P99US), usStr(k.MaxUS))
	}
	if sum.DegradationName != "" {
		lvl := 0
		if sum.DegradationLevel != nil {
			lvl = *sum.DegradationLevel
		}
		fmt.Printf("  ladder: level %d (%s) at exit\n", lvl, sum.DegradationName)
	}
	if t := sum.Trace; t != nil {
		fmt.Printf("  trace: %d traced requests, spans cover %.1f%% of %s end-to-end\n",
			t.Traces, t.Coverage*100, usStr(t.TotalUS))
		fmt.Printf("    %-12s %10s %7s\n", "stage", "total", "share")
		for _, st := range t.Stages {
			fmt.Printf("    %-12s %10s %6.1f%%\n", st.Stage, usStr(st.TotalUS), st.Share*100)
		}
	}
}

func usStr(us int64) string {
	return time.Duration(us * int64(time.Microsecond)).String()
}

func writeJSON(sum summary) error {
	if *jsonOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *jsonOut == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*jsonOut, data, 0o644)
}
