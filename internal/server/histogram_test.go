package server

import (
	"sync"
	"testing"
)

// quantiles reads p50/p95/p99 over everything the histogram recorded, with
// the bucket arithmetic the pressure monitor's windowP99 uses, and checks
// that a window opened at zero reports the same p99.
func quantiles(t *testing.T, h *histogram) (p50, p95, p99 int64) {
	t.Helper()
	var counts [histBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	maxUS := h.maxUS.Load()
	p50 = quantile(&counts, total, 0.50, maxUS)
	p95 = quantile(&counts, total, 0.95, maxUS)
	p99 = quantile(&counts, total, 0.99, maxUS)
	var cur histCursor
	if w := h.windowP99(&cur); w != p99 {
		t.Fatalf("windowP99 from zero = %d, quantile p99 = %d", w, p99)
	}
	return p50, p95, p99
}

// meanUS is the mean the exposition implies: _sum ÷ _count, in µs.
func meanUS(h *histogram) int64 {
	s := h.expose("")
	if s.Count == 0 {
		return 0
	}
	return int64(s.SumSeconds*1e6+0.5) / s.Count
}

func TestHistogramEmpty(t *testing.T) {
	var h histogram
	p50, _, p99 := quantiles(t, &h)
	if n := h.expose("").Count; n != 0 || p50 != 0 || p99 != 0 || h.maxUS.Load() != 0 || meanUS(&h) != 0 {
		t.Fatalf("empty histogram not zero: count %d, p50 %d, p99 %d, max %d, mean %d",
			n, p50, p99, h.maxUS.Load(), meanUS(&h))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for us := int64(1); us <= 1000; us++ {
		h.observe(us)
	}
	if n := h.expose("").Count; n != 1000 {
		t.Fatalf("count = %d, want 1000", n)
	}
	maxUS := h.maxUS.Load()
	if maxUS != 1000 {
		t.Fatalf("max = %d, want 1000", maxUS)
	}
	if mean := meanUS(&h); mean < 400 || mean > 600 {
		t.Fatalf("mean = %d, want ~500", mean)
	}
	// Log-bucketed quantiles are upper bounds within 2× of the true value.
	p50, p95, p99 := quantiles(t, &h)
	if p50 < 500 || p50 > 1000 {
		t.Fatalf("p50 = %d, want in [500, 1000]", p50)
	}
	if p95 < 950 || p95 > 1000 {
		t.Fatalf("p95 = %d, want in [950, 1000]", p95)
	}
	if !(p50 <= p95 && p95 <= p99 && p99 <= maxUS) {
		t.Fatalf("quantiles not monotone: %d/%d/%d max %d", p50, p95, p99, maxUS)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h histogram
	h.observe(-5)
	if n, maxUS := h.expose("").Count, h.maxUS.Load(); n != 1 || maxUS != 0 {
		t.Fatalf("negative observation not clamped to zero: count %d, max %d", n, maxUS)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h histogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.observe(int64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	if n := h.expose("").Count; n != goroutines*per {
		t.Fatalf("count = %d, want %d", n, goroutines*per)
	}
	if maxUS := h.maxUS.Load(); maxUS != goroutines*per-1 {
		t.Fatalf("max = %d, want %d", maxUS, goroutines*per-1)
	}
}
