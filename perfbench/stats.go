package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile. A
// percentile with fewer is the maximum of a handful of draws, not a
// property of the system, so it is refused rather than printed.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted: the smallest sample such that at least p% of all samples are at
// or below it. It refuses when fewer than minTail samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, n-rank, minTail)
	}
	return sorted[rank-1], nil
}

// median returns the median of values (the mean of the middle pair for an
// even count); values need not be sorted and are not modified.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of values with the
// "exclusive" method of Python's statistics.quantiles(values, n=4), with
// which the run-to-run spreads behind BENCHMARK.json's bounds are taken.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	// Python's integer arithmetic: position i*(ld+1)/4 (1-based), the
	// lower index clamped to 1..ld-1, so the ends extrapolate.
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrShare is the interquartile range of values as a share of their
// median: the run-to-run spread the benchmark's bounds are checked against.
func iqrShare(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// calmest marks which of n measurements were calm: the half of them
// (rounded up) with the least host steal, and every one tied with the last
// of those. Steal comes from other tenants of the host, not from the
// program, and it comes in bursts that last from seconds to minutes (2–26%
// per second through one 30 s run); while it lasts the program also runs
// slower between the stolen ticks. Measuring over the calmer half keeps a
// burst shorter than half the phase from setting the run's figures. Ties
// are kept so that on a calm host, where most readings are 0, no sample is
// dropped. A measurement without a steal reading is never calm.
func calmest(steal []float64, n int) []bool {
	calm := make([]bool, n)
	have := min(n, len(steal))
	if have == 0 {
		return calm
	}
	sorted := slices.Clone(steal[:have])
	slices.Sort(sorted)
	limit := sorted[min(have, (n+1)/2)-1]
	for k := 0; k < have; k++ {
		calm[k] = steal[k] <= limit
	}
	return calm
}

// span is one timed call. Spans of one operation share req; parent indexes
// the enclosing span in the same trace, or is -1 for the operation's
// request span. Times are nanoseconds since the run's clock origin.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int32
}

func (s span) dur() int64 { return s.end - s.start }

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once and a child's time outside its parent is not subtracted, so a self
// time is never negative. spans[i].parent must be < i or -1.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(spans, kids[i], s.start, s.end)
	}
	return out
}

// covered returns how much of [lo, hi) the union of the listed spans
// covers.
func covered(spans []span, ids []int32, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].start, lo), min(spans[id].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// coverage is the share of request-span time that layer spans cover: for
// every request span (parent -1), the part of its interval covered by the
// union of its direct children, summed over requests and divided by the
// summed request durations.
func coverage(spans []span) float64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	var cov, total int64
	for i, s := range spans {
		if s.parent != -1 {
			continue
		}
		total += s.dur()
		cov += covered(spans, kids[i], s.start, s.end)
	}
	if total == 0 {
		return 0
	}
	return float64(cov) / float64(total)
}

// lateness returns, for an open-loop schedule that wanted send i at
// origin + i*period, how late each send actually started.
func lateness(origin time.Time, period time.Duration, started []time.Time) []time.Duration {
	out := make([]time.Duration, len(started))
	for i, at := range started {
		out[i] = at.Sub(origin.Add(time.Duration(i) * period))
	}
	return out
}
