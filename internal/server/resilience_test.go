package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sqo/internal/faultinject"
)

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionShedsQueueFull saturates a 1-slot / 1-queue admission
// controller and checks the next arrival is refused with 429 + Retry-After,
// and that the limits and shed counters surface in /metrics.
func TestAdmissionShedsQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1, MonitorInterval: -1})

	// Occupy the only slot directly, then park one request in the only
	// queue position.
	relHold, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	qctx, qcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rel, err := s.adm.Acquire(qctx); err == nil {
			rel()
		}
	}()
	waitFor(t, "queued request", func() bool { return s.adm.Stats().Queued == 1 })

	resp, raw := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: testQueryText})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, raw)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	var eresp errorResponse
	if err := json.Unmarshal(raw, &eresp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eresp.Error, "queue_full") {
		t.Fatalf("shed error = %q, want queue_full reason", eresp.Error)
	}

	// The configured limits and the shed show up in /metrics; the shed
	// rate is shed ÷ (admitted + shed).
	m := scrape(t, ts.URL)
	if c, q := m(`sqo_admission_limit{kind="concurrent"}`), m(`sqo_admission_limit{kind="queue"}`); c != 1 || q != 1 {
		t.Fatalf("admission limits = %v/%v, want 1/1", c, q)
	}
	shedFull := m(`sqo_admission_shed_total{reason="queue_full"}`)
	if shedFull != 1 {
		t.Fatalf("queue_full sheds = %v, want 1", shedFull)
	}
	shed := shedFull + m(`sqo_admission_shed_total{reason="deadline"}`)
	if rate := shed / (m("sqo_admission_admitted_total") + shed); rate <= 0 {
		t.Fatalf("shed rate = %v, want > 0", rate)
	}

	qcancel()
	wg.Wait()
	relHold()
}

// postGet is the GET sibling of postJSON.
func postGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestAdmissionShedsDeadline proves the request deadline (timeout_ms via
// requestContext) propagates into admission: a request whose deadline cannot
// survive the estimated queue wait is shed up front with reason "deadline".
func TestAdmissionShedsDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 8, MonitorInterval: -1})

	// Seed the service-time EWMA with one slow observation so the estimated
	// queue wait (~60ms) dwarfs the 1ms deadline below.
	rel, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	rel()
	if ewma := s.adm.Stats().ServiceEWMAUS; ewma < 50_000 {
		t.Fatalf("service EWMA = %dus, want >= 50ms seed", ewma)
	}

	// Hold the only slot so the request must queue, where the deadline
	// check runs.
	relHold, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer relHold()

	resp, raw := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: testQueryText, TimeoutMS: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, raw)
	}
	var eresp errorResponse
	if err := json.Unmarshal(raw, &eresp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eresp.Error, "deadline") {
		t.Fatalf("shed error = %q, want deadline reason", eresp.Error)
	}
	if shed := s.adm.Stats().ShedDeadline; shed != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", shed)
	}
}

// TestReadyzReportsLevelAndDraining covers the liveness/readiness split:
// degradation is reported but does not fail readiness; draining does.
func TestReadyzReportsLevelAndDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{MonitorInterval: -1})

	check := func(wantCode int, wantStatus string, wantLevel int) {
		t.Helper()
		resp, raw := postGet(t, ts.URL+"/readyz")
		if resp.StatusCode != wantCode {
			t.Fatalf("readyz status = %d, want %d (body %s)", resp.StatusCode, wantCode, raw)
		}
		var body readyzResponse
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		if body.Status != wantStatus || body.DegradationLevel != wantLevel {
			t.Fatalf("readyz = %+v, want status %q level %d", body, wantStatus, wantLevel)
		}
		if body.DegradationName == "" {
			t.Fatal("readyz reported empty degradation name")
		}
	}

	check(http.StatusOK, "ready", 0)

	// A degraded node still answers correctly, so it stays ready.
	s.SetDegradation(2)
	check(http.StatusOK, "ready", 2)

	// Liveness is unaffected by degradation or draining.
	s.StartDraining()
	check(http.StatusServiceUnavailable, "draining", 2)
	hresp, _ := postGet(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status while draining = %d, want 200", hresp.StatusCode)
	}
}

// TestQuarantineEndpoints drives a poison query (injected Optimize panic)
// through the HTTP surface: two strikes, quarantine on the third arrival,
// register inspection via GET /quarantine, and operator reset.
func TestQuarantineEndpoints(t *testing.T) {
	t.Setenv(faultinject.EnvVar, "seed=9,optimize.panic=1:poison")
	eng := testEngine(t)
	_, ts := newTestServer(t, Config{Engine: eng, MonitorInterval: -1})

	// Strikes one and two: the recovered panic surfaces as 422.
	for i := 1; i <= 2; i++ {
		resp, raw := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: testQueryText})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("strike %d status = %d, want 422 (body %s)", i, resp.StatusCode, raw)
		}
		if !strings.Contains(string(raw), "panic") {
			t.Fatalf("strike %d body = %s, want recovered panic", i, raw)
		}
	}
	// Third arrival: refused by the register without touching the engine.
	resp, raw := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: testQueryText})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined status = %d, want 422 (body %s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "quarantined") {
		t.Fatalf("quarantined body = %s, want quarantine refusal", raw)
	}

	qresp, qraw := postGet(t, ts.URL+"/quarantine")
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("quarantine status = %d", qresp.StatusCode)
	}
	// The register lists entries only; its counters are on /metrics.
	var reg quarantineResponse
	dec := json.NewDecoder(bytes.NewReader(qraw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&reg); err != nil {
		t.Fatal(err)
	}
	m := scrape(t, ts.URL)
	if q, b := m("sqo_quarantine_quarantined_total"), m("sqo_quarantine_blocked_total"); q != 1 || b != 1 {
		t.Fatalf("quarantine series = %v quarantined / %v blocked, want 1 / 1", q, b)
	}
	if strikes := m("sqo_quarantine_strikes_total"); strikes != 2 {
		t.Fatalf("sqo_quarantine_strikes_total = %v, want 2", strikes)
	}
	if len(reg.Entries) != 1 || !reg.Entries[0].Active || reg.Entries[0].Strikes != 2 {
		t.Fatalf("quarantine entries = %+v, want one active 2-strike entry", reg.Entries)
	}
	if len(reg.Entries[0].Fingerprint) != 32 {
		t.Fatalf("fingerprint = %q, want 32 hex chars", reg.Entries[0].Fingerprint)
	}

	rresp, rraw := postJSON(t, ts.URL+"/quarantine/reset", struct{}{})
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("reset status = %d", rresp.StatusCode)
	}
	var dropped map[string]int
	if err := json.Unmarshal(rraw, &dropped); err != nil {
		t.Fatal(err)
	}
	if dropped["dropped"] != 1 {
		t.Fatalf("reset dropped = %d, want 1", dropped["dropped"])
	}
	qresp2, qraw2 := postGet(t, ts.URL+"/quarantine")
	if qresp2.StatusCode != http.StatusOK {
		t.Fatalf("quarantine status after reset = %d", qresp2.StatusCode)
	}
	var reg2 quarantineResponse
	if err := json.Unmarshal(qraw2, &reg2); err != nil {
		t.Fatal(err)
	}
	if len(reg2.Entries) != 0 {
		t.Fatalf("quarantine entries after reset = %+v, want none", reg2.Entries)
	}
}
