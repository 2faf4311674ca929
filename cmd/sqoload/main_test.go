package main

import (
	"net/http"
	"testing"
	"time"
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
