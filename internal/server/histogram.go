// Package server is the network front door of the optimizer: an HTTP
// serving layer over sqo.Engine with admission control, per-request
// deadlines, per-endpoint latency accounting, and a connection-draining
// graceful shutdown. cmd/sqod wraps it into a daemon; cmd/sqoload drives
// it under load.
package server

import (
	"math"
	"math/bits"
	"sync/atomic"

	"sqo/internal/obs"
)

// histBuckets is the number of power-of-two latency buckets. Bucket i
// collects durations whose microsecond value needs exactly i bits, so the
// range spans 1µs to ~2^62µs — far beyond any deadline the server allows.
const histBuckets = 64

// histogram is a lock-free log₂-bucketed latency histogram. Recording is a
// handful of atomic adds, so the serving path never contends on a metrics
// mutex; quantiles are estimated from the bucket counts at read time.
type histogram struct {
	count   atomic.Int64
	sumUS   atomic.Int64
	maxUS   atomic.Int64
	buckets [histBuckets]atomic.Int64

	// Per-bucket exemplars: the trace ID and value of the most recent
	// traced observation that landed in the bucket. The ID is written
	// last and read first, so a non-zero ID always pairs with a value no
	// newer than itself — good enough for an advisory exemplar, with no
	// lock on the recording path.
	exemplarUS [histBuckets]atomic.Int64
	exemplarID [histBuckets]atomic.Uint64
}

// observe records one duration in microseconds.
func (h *histogram) observe(us int64) {
	if us < 0 {
		us = 0
	}
	h.count.Add(1)
	h.sumUS.Add(us)
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(us))].Add(1)
}

// observeTraced records one duration and pins it as the exemplar of its
// bucket, keyed by the request's trace ID. IDs are never zero (the tracer
// allocates from 1), so a zero ID means "no exemplar yet".
func (h *histogram) observeTraced(us int64, traceID uint64) {
	h.observe(us)
	if traceID == 0 {
		return
	}
	if us < 0 {
		us = 0
	}
	i := bits.Len64(uint64(us))
	h.exemplarUS[i].Store(us)
	h.exemplarID[i].Store(traceID)
}

// histCursor is a caller-held copy of the bucket counters, the baseline a
// windowed quantile measures growth against.
type histCursor [histBuckets]int64

// windowP99 estimates the p99 of the observations recorded since the
// previous call with the same cursor, advancing the cursor. It returns 0
// when the window saw no traffic — the pressure monitor treats that as "no
// latency signal", not "zero latency".
func (h *histogram) windowP99(prev *histCursor) int64 {
	var counts [histBuckets]int64
	var total int64
	for i := range h.buckets {
		cur := h.buckets[i].Load()
		counts[i] = cur - prev[i]
		prev[i] = cur
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	return quantile(&counts, total, 0.99, h.maxUS.Load())
}

// quantile returns the upper bound of the bucket containing rank q·total,
// clamped to the observed maximum.
func quantile(counts *[histBuckets]int64, total int64, q float64, maxUS int64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen > rank {
			// Bucket i holds values in [2^(i-1), 2^i).
			upper := int64(1) << uint(i)
			if i == 0 {
				upper = 0
			}
			// Shifting by 63 wraps negative; the top bucket's bound is
			// unrepresentable anyway, so clamp straight to the observed max.
			if i >= 63 || upper > maxUS {
				upper = maxUS
			}
			return upper
		}
	}
	return maxUS
}

// expoBuckets is how many log₂ buckets the Prometheus exposition renders
// explicitly before collapsing the tail into le="+Inf". Bucket 25's upper
// bound is 2^25µs ≈ 33.6s — past every deadline the server allows — so the
// collapse loses nothing a dashboard would plot.
const expoBuckets = 26

// expose converts the histogram into exposition form: cumulative bucket
// counts with le bounds in seconds (2^i µs), the recorded sum, and the
// latest traced observation per bucket as an exemplar.
func (h *histogram) expose(labels string) obs.HistSample {
	s := obs.HistSample{
		Labels:     labels,
		SumSeconds: float64(h.sumUS.Load()) / 1e6,
		Count:      h.count.Load(),
		Buckets:    make([]obs.HistBucket, 0, expoBuckets+1),
	}
	var cum int64
	for i := 0; i < expoBuckets; i++ {
		cum += h.buckets[i].Load()
		b := obs.HistBucket{
			LE:         float64(int64(1)<<uint(i)) / 1e6,
			Cumulative: cum,
		}
		if id := h.exemplarID[i].Load(); id != 0 {
			b.ExemplarID = id
			b.ExemplarValue = float64(h.exemplarUS[i].Load()) / 1e6
		}
		s.Buckets = append(s.Buckets, b)
	}
	inf := obs.HistBucket{LE: math.Inf(1)}
	for i := expoBuckets; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if id := h.exemplarID[i].Load(); id != 0 {
			inf.ExemplarID = id
			inf.ExemplarValue = float64(h.exemplarUS[i].Load()) / 1e6
		}
	}
	inf.Cumulative = cum
	s.Buckets = append(s.Buckets, inf)
	return s
}
