package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sqo"
	"sqo/internal/faultinject"
)

func TestCatalogUpdateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Warm the cache with a query that only depends on c1.
	resp, _ := postJSON(t, ts.URL+"/optimize", OptimizeRequest{Query: testQueryText})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: status %d", resp.StatusCode)
	}

	// Add an unrelated rule: the cached entry must survive.
	resp, raw := postJSON(t, ts.URL+"/catalog/update", UpdateRequest{
		Add: []string{`z1: vehicle.desc = "tanker" [collects] -> cargo.desc = "oil"`},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, raw)
	}
	var ur UpdateResponse
	if err := json.Unmarshal(raw, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Added != 1 || ur.Removed != 0 || !ur.Incremental || ur.Epoch != 1 {
		t.Fatalf("update response = %+v", ur)
	}
	if ur.Constraints != 2 {
		t.Fatalf("constraints = %d, want 2", ur.Constraints)
	}

	// Replace and remove finish the op coverage.
	resp, raw = postJSON(t, ts.URL+"/catalog/update", UpdateRequest{
		Replace: map[string]string{"z1": `z1: vehicle.desc = "flatbed" [collects] -> cargo.desc = "steel"`},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace: status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Added != 1 || ur.Removed != 1 || ur.Constraints != 2 {
		t.Fatalf("replace response = %+v", ur)
	}
	resp, raw = postJSON(t, ts.URL+"/catalog/update", UpdateRequest{Remove: []string{"z1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d: %s", resp.StatusCode, raw)
	}

	// The endpoint's own series and the engine's update counter.
	m := scrape(t, ts.URL)
	const ep = `{endpoint="/catalog/update"}`
	if req, errs := m("sqo_requests_total"+ep), m("sqo_request_errors_total"+ep); req != 3 || errs != 0 {
		t.Fatalf("/catalog/update series = %v requests / %v errors, want 3 / 0", req, errs)
	}
	if n := m("sqo_catalog_updates_total"); n != 3 {
		t.Fatalf("sqo_catalog_updates_total = %v, want 3", n)
	}
}

func TestCatalogUpdateEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  UpdateRequest
		code int
	}{
		{"empty delta", UpdateRequest{}, http.StatusBadRequest},
		{"bad constraint text", UpdateRequest{Add: []string{"not a constraint"}}, http.StatusBadRequest},
		{"bad replace text", UpdateRequest{Replace: map[string]string{"c1": "nope"}}, http.StatusBadRequest},
		{"unknown removal", UpdateRequest{Remove: []string{"zz"}}, http.StatusUnprocessableEntity},
		{"schema mismatch", UpdateRequest{Add: []string{`b1: nosuch.x = "v" -> cargo.desc = "steel"`}}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, raw := postJSON(t, ts.URL+"/catalog/update", tc.req)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, raw)
		}
	}
	// None of the failures may have advanced the engine.
	m := scrape(t, ts.URL)
	if epoch, n := m("sqo_catalog_epoch"), m("sqo_catalog_updates_total"); epoch != 0 || n != 0 {
		t.Fatalf("failed updates disturbed the engine: epoch %v, %v updates", epoch, n)
	}
}

// TestCatalogSwapRebaselinesStore: a swap restarts the catalog lineage and
// orphans the journal, so with Config.Store set /catalog/swap writes a
// fresh snapshot. The next boot must come up warm on the swapped catalog
// with nothing to replay, and an update after the swap must journal onto
// that baseline. A baseline that cannot be written answers 500.
func TestCatalogSwapRebaselinesStore(t *testing.T) {
	dir := t.TempDir()
	sch := sqo.LogisticsSchema()
	boot := func() (*sqo.Engine, *sqo.SnapshotStore, sqo.BootReport) {
		t.Helper()
		store, err := sqo.OpenSnapshotStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng, rep, err := store.Boot(sch, sqo.LogisticsConstraints())
		if err != nil {
			t.Fatal(err)
		}
		return eng, store, rep
	}
	// serve runs one daemon lifetime over a booted store. It closes the
	// store without sqod's drain snapshot, so the next boot replays
	// whatever the lifetime journaled.
	serve := func(eng *sqo.Engine, store *sqo.SnapshotStore, run func(url string)) {
		t.Helper()
		s, err := New(Config{Engine: eng, Store: store, MonitorInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		run(ts.URL)
		ts.Close()
		s.Close()
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
	update := func(url, id string) {
		t.Helper()
		rule := id + `: vehicle.desc = "swap-test" -> vehicle.capacity <= 50`
		if resp, raw := postJSON(t, url+"/catalog/update", UpdateRequest{Add: []string{rule}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("update %s: status %d: %s", id, resp.StatusCode, raw)
		}
	}
	ids := func(eng *sqo.Engine) string {
		var out []string
		for _, c := range eng.Catalog().All() {
			out = append(out, c.ID)
		}
		return strings.Join(out, ",")
	}

	// The swap target drops the first logistics rule, so it differs from
	// both the declared catalog and the journaled state.
	var lines []string
	swapped, err := sqo.NewCatalog(sqo.LogisticsConstraints().All()[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range swapped.All() {
		lines = append(lines, c.String())
	}
	swapReq := SwapRequest{Catalog: strings.Join(lines, "\n")}

	eng, store, _ := boot()
	var swappedIDs string
	serve(eng, store, func(url string) {
		update(url, "zs1")
		if resp, raw := postJSON(t, url+"/catalog/swap", swapReq); resp.StatusCode != http.StatusOK {
			t.Fatalf("swap: status %d: %s", resp.StatusCode, raw)
		}
		swappedIDs = ids(eng)
	})

	eng, store, rep := boot()
	if !rep.Warm || rep.Replayed != 0 || rep.Constraints != swapped.Len() {
		t.Fatalf("boot after swap = %+v, want warm, 0 replayed, %d constraints", rep, swapped.Len())
	}
	if got := ids(eng); got != swappedIDs {
		t.Fatalf("boot after swap serves %s, want the swapped catalog %s", got, swappedIDs)
	}
	serve(eng, store, func(url string) { update(url, "zs2") })

	eng, store, rep = boot()
	if !rep.Warm || rep.Replayed != 1 || rep.Constraints != swapped.Len()+1 {
		t.Fatalf("boot after post-swap update = %+v, want warm, 1 replayed, %d constraints", rep, swapped.Len()+1)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// A warm boot writes no snapshot, so an injected snapshot.write fault
	// reaches the swap's baseline and nothing before it.
	t.Setenv(faultinject.EnvVar, "snapshot.write=1")
	eng, store, _ = boot()
	serve(eng, store, func(url string) {
		resp, raw := postJSON(t, url+"/catalog/swap", swapReq)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("swap with failing baseline: status %d, want 500: %s", resp.StatusCode, raw)
		}
		if !strings.Contains(string(raw), "swapped in memory") {
			t.Fatalf("swap with failing baseline said %s, want it to report the in-memory swap", raw)
		}
		if got := ids(eng); got != swappedIDs {
			t.Fatalf("engine serves %s after the failed baseline, want the swapped catalog %s", got, swappedIDs)
		}
	})
}
