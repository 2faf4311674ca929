package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50},
		{100, 90, 90},  // exactly ten samples beyond
		{200, 95, 190}, // ceil(0.95*200) = 190
		{21, 50, 11},   // ceil(10.5) = 11
		{200, 90, 180},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if err != nil {
			t.Fatalf("p%v of %d: %v", c.p, c.n, err)
		}
		if got != c.want {
			t.Errorf("p%v of %d = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{100, 95}, // five samples beyond
		{99, 90},  // nine beyond
		{1, 50},
		{0, 50},
		{1000, 0},
		{1000, 100},
	} {
		if v, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%v of %d = %v, want a refusal", c.p, c.n, v)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its input: %v", in)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected quartiles are those Python's
// statistics.quantiles(values, n=4) returns for the same values.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(5), 1.5, 4.5},
		{[]float64{7, 1, 3, 5}, 1.5, 6.5},
		{seq(2), 0.75, 2.25}, // Python extrapolates past the ends
		{seq(3), 1, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
		{[]float64{3.1, 2.2, 9.9, 4.4, 5.0, 6.1, 1.0, 8.8, 7.7, 0.5}, 1.9, 7.975},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrShare(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "request", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 60, parent: 0}, // overlaps a
		{name: "a.child", start: 15, end: 20, parent: 1},
		{name: "late", start: 90, end: 120, parent: 0}, // runs past its parent
	}
	got := selfTimes(spans)
	// request: 100 minus the union [10,60) and [90,100).
	want := []int64{40, 25, 30, 5, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestCoverage(t *testing.T) {
	spans := []span{
		{name: "request", start: 0, end: 100, parent: -1},
		{name: "x", start: 0, end: 50, parent: 0},
		{name: "y", start: 40, end: 80, parent: 0},
		{name: "x.inner", start: 10, end: 20, parent: 1}, // nested: not counted twice
		{name: "request", start: 200, end: 300, parent: -1},
		{name: "z", start: 200, end: 300, parent: 4},
	}
	if got := coverage(spans); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("coverage = %v, want 0.9 (180 of 200)", got)
	}
	if got := coverage(nil); got != 0 {
		t.Errorf("coverage of nothing = %v", got)
	}
}

func TestLateness(t *testing.T) {
	origin := time.Unix(1000, 0)
	period := 10 * time.Millisecond
	started := []time.Time{
		origin.Add(time.Millisecond),
		origin.Add(10 * time.Millisecond),
		origin.Add(25 * time.Millisecond),
	}
	want := []time.Duration{time.Millisecond, 0, 5 * time.Millisecond}
	got := lateness(origin, period, started)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lateness[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if m := meanUS(got); m != 2000 {
		t.Errorf("mean lateness = %vµs, want 2000", m)
	}
}

func TestCalmest(t *testing.T) {
	steal := []float64{9, 0, 4, 3, 16, 1}
	// Half of 6 is 3: the readings 0, 1 and 3.
	if got, want := calmest(steal, len(steal)), []bool{false, true, false, true, false, true}; !slices.Equal(got, want) {
		t.Errorf("calmest(%v) = %v, want %v", steal, got, want)
	}
	// Half of 7 is 4, rounding up: 0, 0, 1 and 2.
	steal = []float64{3, 0, 7, 1, 0, 2, 5}
	if got, want := calmest(steal, len(steal)), []bool{false, true, false, true, true, true, false}; !slices.Equal(got, want) {
		t.Errorf("calmest(%v) = %v, want %v", steal, got, want)
	}
	// Readings tied with the last calm one are calm too.
	steal = []float64{0, 0, 0, 0, 0, 3}
	if got, want := calmest(steal, len(steal)), []bool{true, true, true, true, true, false}; !slices.Equal(got, want) {
		t.Errorf("ties: %v, want %v", got, want)
	}
	// A measurement without a steal reading is never calm.
	if got := calmest([]float64{5}, 2); got[1] || !got[0] {
		t.Errorf("missing reading: %v", got)
	}
	if got := calmest(nil, 2); got[0] || got[1] {
		t.Errorf("no readings: %v", got)
	}
}

func TestBySlice(t *testing.T) {
	recs := []*recorder{
		{lat: []float64{5, 1, 2, 9}, marks: []int{2, 3}},
		{lat: []float64{4, 3}, marks: []int{1}},
	}
	got := bySlice(recs, 3*time.Second)
	want := [][]float64{{1, 4, 5}, {2, 3}, {9}}
	if len(got) != len(want) {
		t.Fatalf("%d slices, want %d", len(got), len(want))
	}
	for k := range want {
		if len(got[k]) != len(want[k]) {
			t.Fatalf("slice %d = %v, want %v", k, got[k], want[k])
		}
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				t.Errorf("slice %d = %v, want %v", k, got[k], want[k])
			}
		}
	}
	// A final stretch shorter than half a slice is dropped.
	if n := len(bySlice(recs, 2*time.Second+300*time.Millisecond)); n != 2 {
		t.Errorf("%d slices for 2.3s, want 2", n)
	}
}
