// Command perfbench is the repository's benchmark: two seeded workloads
// driven against the program's public entry points (Engine.Execute, and
// Engine.Optimize beside Engine.UpdateCatalog), each printing its
// end-to-end metrics with unit and sample count and checking every
// answer. With --trace 1 the same workload runs again with a span around
// every call the benchmark makes into a layer package, and the run prints
// per-layer metrics instead. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload execute-1e4 --seed 1 --seconds 50 --trace 0
//	bash perfbench/run.sh --spread results.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sqo/internal/faultinject"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg runConfig) (*report, error){
	"execute-1e4": runExecute,
	"mutate-1e4":  runMutate,
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	timed   time.Duration
	trace   bool
	workDir string // the run's scratch files, inside the checkout; removed at exit
}

// endToEndNames lists every end-to-end metric with its unit. Each workload
// reports all of them; an untraced run that misses one fails.
var endToEndNames = map[string]string{
	"throughput_qps":   "ops/s",
	"latency_p50_us":   "us",
	"latency_p95_us":   "us",
	"cpu_us_per_op":    "us",
	"setup_s":          "s",
	"heap_mb":          "MB",
	"tuples_per_query": "tuples",
	"update_p50_us":    "us",
	"update_p90_us":    "us",
}

func main() {
	workload := flag.String("workload", "", "execute-1e4 or mutate-1e4")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	spread := flag.String("spread", "", "print median and IQR share per metric of the result lines in this file, then exit")
	flag.Parse()
	if *spread != "" {
		if err := printSpread(*spread); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int) error {
	drive, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	// NewEngine reads the fault-injection variable; a run under injected
	// faults measures the injector, not the program.
	if v, set := os.LookupEnv(faultinject.EnvVar); set {
		return fmt.Errorf("refusing to run with %s=%q set", faultinject.EnvVar, v)
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-%d", workload, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Printf("host: %s\n", hostInfo())
	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, trace)
	rep, err := drive(runConfig{seed: seed, timed: time.Duration(seconds) * time.Second, trace: trace == 1, workDir: dir})
	if err != nil {
		return err
	}
	return rep.print(trace == 1)
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// report is what a workload hands back for printing.
type report struct {
	attempted, failed int
	endToEnd          map[string]metric // untraced runs
	layers            map[string]metric // traced runs
	diag              map[string]metric // printed on every run, never in the result line
	notes             []string          // correctness findings, printed before the result
}

func newReport() *report {
	return &report{endToEnd: map[string]metric{}, layers: map[string]metric{}, diag: map[string]metric{}}
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// print writes the human-readable lines and, last, the one-line JSON result:
// every end-to-end metric for an untraced run, every per-layer metric (0
// for a layer the workload does not exercise) for a traced one.
func (r *report) print(traced bool) error {
	out, want := r.endToEnd, endToEndNames
	if traced {
		out, want = r.layers, perLayerNames
		for n, unit := range perLayerNames {
			if _, ok := out[n]; !ok {
				out[n] = metric{Unit: unit}
			}
		}
	}
	show := func(group, skip map[string]metric) {
		names := make([]string, 0, len(group))
		for n := range group {
			if _, dup := skip[n]; !dup {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			m := group[n]
			fmt.Printf("%-28s %14.4f %-7s n=%d\n", n, m.Value, m.Unit, m.samples)
		}
	}
	show(out, nil)
	show(r.diag, out)
	for _, n := range r.notes {
		fmt.Println("check failed:", n)
	}
	if r.attempted < 1 {
		return errors.New("no operation completed")
	}
	for n, unit := range want {
		if m, ok := out[n]; !ok || m.Unit != unit {
			return fmt.Errorf("metric %s missing or not in %s", n, unit)
		}
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostInfo is the host block every run prints: the figures a reader needs
// to compare runs taken on different machines.
func hostInfo() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}
