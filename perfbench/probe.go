package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuModel reads the processor model from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: steal ticks and
// all ticks. Both zero where the file is missing.
func cpuTicks() (steal, total int64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = n
		}
	}
	return steal, total
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still live. The
// second collection frees what sync.Pool victim caches kept alive through
// the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// slice is the length of the sub-windows a timed phase is cut into. The
// throughput, latency and CPU metrics are medians across the calm slices,
// so a burst of host steal in some of them does not move the run's figure.
const slice = time.Second

// window measures one timed phase: wall time, host steal and Go runtime
// allocation counters between start and stop, and the process CPU time of
// every slice.
type window struct {
	wall               time.Duration
	stealPct           float64
	mallocs, bytes, gc uint64
	// Per slice: the process CPU time and the host's steal share.
	sliceCPU   []time.Duration
	sliceSteal []float64

	t0           time.Time
	steal0, tot0 int64
	ms0          runtime.MemStats
	done         chan struct{} // closed by stop
	sampled      chan struct{} // closed by the sampler once the slices are final
}

func (w *window) start() {
	runtime.ReadMemStats(&w.ms0)
	w.steal0, w.tot0 = cpuTicks()
	w.done, w.sampled = make(chan struct{}), make(chan struct{})
	w.t0 = time.Now()
	go func() {
		defer close(w.sampled)
		lastCPU := processCPU()
		lastSteal, lastTot := w.steal0, w.tot0
		sample := func() {
			cpu := processCPU()
			steal, tot := cpuTicks()
			w.sliceCPU = append(w.sliceCPU, cpu-lastCPU)
			w.sliceSteal = append(w.sliceSteal, stealShare(steal-lastSteal, tot-lastTot))
			lastCPU, lastSteal, lastTot = cpu, steal, tot
		}
		tick := time.NewTicker(slice)
		defer tick.Stop()
		for {
			select {
			case <-w.done:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
}

func (w *window) stop() {
	w.wall = time.Since(w.t0)
	close(w.done)
	<-w.sampled
	steal, tot := cpuTicks()
	w.stealPct = stealShare(steal-w.steal0, tot-w.tot0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - w.ms0.Mallocs
	w.bytes = ms.TotalAlloc - w.ms0.TotalAlloc
	w.gc = uint64(ms.NumGC - w.ms0.NumGC)
}

// recorder keeps one caller's per-operation latencies, and the number of
// them recorded by the end of each slice. Its buffer is sized up front so
// that recording allocates nothing during the timed phase.
type recorder struct {
	lat    []float64 // microseconds
	marks  []int
	errors int
}

// newRecorders returns n recorders with room for perSecond latencies per
// second of a phase of length d: enough for a caller below that rate.
func newRecorders(n int, d time.Duration, perSecond int) []*recorder {
	capacity := perSecond * int((d+time.Second-1)/time.Second)
	out := make([]*recorder, n)
	for i := range out {
		out[i] = &recorder{lat: make([]float64, 0, capacity)}
	}
	return out
}

// closedLoop runs one goroutine per recorder until the deadline; each calls
// op for its next operation as soon as the previous one returns and records
// the call's latency. op returns false for a failed operation. It returns
// once every caller has stopped.
func closedLoop(recs []*recorder, d time.Duration, op func(caller, i int) bool) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c, rec := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := start.Add(slice)
			for i := 0; ; i++ {
				t := time.Now()
				if !t.Before(deadline) {
					return
				}
				ok := op(c, i)
				end := time.Now()
				rec.lat = append(rec.lat, float64(end.Sub(t).Nanoseconds())/1e3)
				if !ok {
					rec.errors++
				}
				for !end.Before(next) {
					rec.marks = append(rec.marks, len(rec.lat))
					next = next.Add(slice)
				}
			}
		}()
	}
	wg.Wait()
}

// merged returns every recorder's latencies, sorted, and the error total.
func merged(recs []*recorder) ([]float64, int) {
	var all []float64
	errs := 0
	for _, r := range recs {
		all = append(all, r.lat...)
		errs += r.errors
	}
	slices.Sort(all)
	return all, errs
}

// bySlice splits the recorders' latencies by slice, merged across callers
// and sorted. A final slice shorter than half a slice is dropped.
func bySlice(recs []*recorder, wall time.Duration) [][]float64 {
	n := int(wall / slice)
	if wall%slice >= slice/2 {
		n++
	}
	out := make([][]float64, n)
	for _, r := range recs {
		lo := 0
		for k := 0; k < n; k++ {
			hi := len(r.lat)
			if k < len(r.marks) {
				hi = r.marks[k]
			}
			out[k] = append(out[k], r.lat[lo:hi]...)
			lo = hi
		}
	}
	for _, s := range out {
		slices.Sort(s)
	}
	return out
}

// openLoop calls op n times on a fixed schedule, send i due at
// origin + i*period whatever happened before it, until stop closes. Latency
// runs from the due time, so a stall also delays every send queued behind
// it. It returns the latencies (µs), the start times and the origin.
func openLoop(n int, period time.Duration, stop <-chan struct{}, op func(i int)) (lat []float64, started []time.Time, origin time.Time) {
	origin = time.Now().Add(period)
	for i := 0; i < n; i++ {
		due := origin.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		}
		started = append(started, time.Now())
		op(i)
		lat = append(lat, float64(time.Since(due).Nanoseconds())/1e3)
	}
	return
}

// addLatency reports the median and a tail percentile of sorted latencies.
func addLatency(r *report, sorted []float64, p50, tail string, tailP float64) error {
	if len(sorted) == 0 {
		return fmt.Errorf("%s: no samples", p50)
	}
	mid, err := percentile(sorted, 50)
	if err != nil {
		return fmt.Errorf("%s: %w", p50, err)
	}
	t, err := percentile(sorted, tailP)
	if err != nil {
		return fmt.Errorf("%s: %w", tail, err)
	}
	r.endToEnd[p50] = metric{Value: mid, Unit: "us", samples: len(sorted)}
	r.endToEnd[tail] = metric{Value: t, Unit: "us", samples: len(sorted)}
	return nil
}

// addTimed reports a closed-loop timed phase: throughput, CPU per
// operation and latency, each the median of its values over the calm
// slices (calmest), plus the phase's host steal. The sample count printed
// with each is the number of operations in the calm slices. It returns the
// operations completed.
func addTimed(r *report, w window, recs []*recorder) (int, error) {
	all, errs := merged(recs)
	r.attempted, r.failed = r.attempted+len(all), r.failed+errs
	addSteal(r, w)
	perSlice := bySlice(recs, w.wall)
	calm := calmest(w.sliceSteal, len(perSlice))
	var qps, cpu, p50, p95, steal []float64
	calmOps := 0
	for k, s := range perSlice {
		if !calm[k] {
			continue
		}
		if len(s) == 0 {
			return 0, fmt.Errorf("slice %d completed no operation", k)
		}
		mid, err := percentile(s, 50)
		if err != nil {
			return 0, fmt.Errorf("latency_p50_us in slice %d: %w", k, err)
		}
		tail, err := percentile(s, 95)
		if err != nil {
			return 0, fmt.Errorf("latency_p95_us in slice %d: %w", k, err)
		}
		p50, p95 = append(p50, mid), append(p95, tail)
		qps = append(qps, float64(len(s))/slice.Seconds())
		cpu = append(cpu, float64(w.sliceCPU[k].Nanoseconds())/1e3/float64(len(s)))
		steal = append(steal, w.sliceSteal[k])
		calmOps += len(s)
	}
	r.endToEnd["throughput_qps"] = metric{Value: median(qps), Unit: "ops/s", samples: calmOps}
	r.endToEnd["cpu_us_per_op"] = metric{Value: median(cpu), Unit: "us", samples: calmOps}
	r.endToEnd["latency_p50_us"] = metric{Value: median(p50), Unit: "us", samples: calmOps}
	r.endToEnd["latency_p95_us"] = metric{Value: median(p95), Unit: "us", samples: calmOps}
	r.diag["host.steal_calm_pct"] = metric{Value: median(steal), Unit: "%", samples: len(steal)}
	return len(all), nil
}

// addSteal reports the host steal during a phase.
func addSteal(r *report, w window) {
	m := metric{Value: w.stealPct, Unit: "%", samples: 1}
	r.diag["host.steal_pct"] = m
	r.layers["host.steal_pct"] = m
}

// addRuntime reports the Go runtime's allocations and collections per
// operation over a phase of ops operations.
func addRuntime(r *report, w window, ops int) {
	r.layers["runtime.allocs_per_op"] = metric{Value: float64(w.mallocs) / float64(ops), Unit: "count", samples: ops}
	r.layers["runtime.alloc_bytes_per_op"] = metric{Value: float64(w.bytes) / float64(ops), Unit: "B", samples: ops}
	r.layers["runtime.gc_per_kop"] = metric{Value: 1000 * float64(w.gc) / float64(ops), Unit: "count", samples: ops}
}

// repeatSetup runs setup n times back to back, each from a collected heap
// with the previous product dropped, and returns the last product, the
// median duration in seconds over the calm set-ups, and how many those
// were. As with the timed phase's slices, the calm set-ups are those with
// the least host steal (calmest).
func repeatSetup[T any](n int, setup func() (T, error)) (T, float64, int, error) {
	var last, zero T
	times := make([]float64, 0, n)
	steal := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		last = zero
		runtime.GC()
		steal0, tot0 := cpuTicks()
		t := time.Now()
		v, err := setup()
		if err != nil {
			return zero, 0, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		steal1, tot1 := cpuTicks()
		steal = append(steal, stealShare(steal1-steal0, tot1-tot0))
		last = v
	}
	var calm []float64
	for i, ok := range calmest(steal, n) {
		if ok {
			calm = append(calm, times[i])
		}
	}
	return last, median(calm), len(calm), nil
}

// stealShare is steal ticks as a percentage of all ticks, 0 for none.
func stealShare(steal, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(steal) / float64(total)
}

// printSpread reads result lines (one JSON object per line, as the last
// line of each run prints it) and prints each metric's median and IQR share.
func printSpread(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	runs := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var res struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal(line, &res); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		runs++
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	slices.Sort(names)
	fmt.Printf("%d runs\n", runs)
	for _, k := range names {
		fmt.Printf("%-28s median %14.4f  iqr/median %.4f\n", k, median(values[k]), iqrShare(values[k]))
	}
	return nil
}
