// Command sqod is the optimizer as a network service: a long-lived HTTP
// daemon over one sqo.Engine, with admission control, per-request
// deadlines, latency accounting, and a connection-draining graceful
// shutdown on SIGINT/SIGTERM. Each POST /optimize is one Engine.Optimize
// call; POST /optimize/batch fans a client-assembled batch out over the
// engine's worker pool.
//
// By default it serves the paper's logistics evaluation world (schema,
// constraint catalog, and a DB1-statistics cost model); -schema and
// -constraints swap in any world expressible in the text formats.
//
// Endpoints:
//
//	POST /optimize        {"query": "(SELECT ...)", "timeout_ms": 250}
//	POST /optimize/batch  {"queries": ["(SELECT ...)", ...]}
//	POST /query           {"query": "(SELECT ...)", "optimize": true}
//	POST /catalog/swap    {"catalog": "c1: a.x = 1 [r] -> b.y = 2\n..."}
//	POST /catalog/update  {"add": ["c9: ..."], "remove": ["c1"], "replace": {"c2": "c2: ..."}}
//	GET  /healthz, /readyz
//	GET  /quarantine      POST /quarantine/reset
//	GET  /metrics         (OpenMetrics: every counter the daemon serves)
//	GET  /trace/{id}, /traces
//
// The engine serves the declared catalog through the inverted constraint
// index over its interned symbol space. /catalog/update applies an
// incremental delta (Engine.UpdateCatalog): it patches the generation in
// O(|delta|) and invalidates only the cached results the delta touches.
//
// With -snapshot-dir the catalog is persistent: the daemon boots warm from
// the directory's snapshot + delta journal when they are sound (cold-building
// from -constraints otherwise), journals every /catalog/update, re-baselines
// on /catalog/swap, and folds the journal into a fresh snapshot on drain.
// See docs/OPERATIONS.md for the runbook.
//
// Usage:
//
//	sqod                               # logistics world on :7411
//	sqod -addr :9000 -cache 8192
//	sqod -schema world.txt -constraints rules.txt -db ""
//	sqod -snapshot-dir /var/lib/sqod
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sqo"
	"sqo/internal/faultinject"
	"sqo/internal/server"
)

var (
	addr        = flag.String("addr", ":7411", "listen address")
	schemaFile  = flag.String("schema", "", "schema file in the RenderSchema text format (default: logistics)")
	catFile     = flag.String("constraints", "", "constraint catalog file, one per line (default: logistics)")
	dbName      = flag.String("db", "DB1", "database instance whose statistics drive the cost model (DB1..DB4, '' = heuristic)")
	cacheSize   = flag.Int("cache", 4096, "result cache entries (0 disables)")
	cacheCanon  = flag.Bool("cache-canon", false, "key the result cache by canonical query form (near-duplicates collapse onto one entry)")
	cacheSub    = flag.Bool("cache-subsume", false, "answer contained queries from cached generalizations (implies -cache-canon; degrades to canonical-only under a statistics cost model)")
	workers     = flag.Int("workers", 0, "batch worker pool width (0 = GOMAXPROCS)")
	reqTimeout  = flag.Duration("request-timeout", 10*time.Second, "default per-request deadline")
	maxTimeout  = flag.Duration("max-timeout", time.Minute, "cap on client-supplied timeout_ms")
	drain       = flag.Duration("drain", 15*time.Second, "graceful shutdown drain budget")
	snapshotDir = flag.String("snapshot-dir", "", "directory for the catalog snapshot + delta journal (enables warm restart)")

	maxConcurrent = flag.Int("max-concurrent", 0, "admission limit on concurrent data-plane requests (0 = 16)")
	maxQueue      = flag.Int("max-queue", 0, "admission queue depth behind the concurrency limit (0 = 4x max-concurrent)")
	monitorEvery  = flag.Duration("monitor-interval", 250*time.Millisecond, "pressure-monitor cadence for the degradation ladder (<0 disables)")

	logFormat   = flag.String("log-format", "text", "log output format: text or json")
	traceSample = flag.Int("trace-sample", 0, "trace one in every N requests (0 = only X-Sqo-Trace'd requests)")
	slowQuery   = flag.Duration("slow-query", 0, "log traced requests slower than this with a full span breakdown (0 disables)")
	debugAddr   = flag.String("debug-addr", "", "listen address for the debug mux (net/http/pprof); empty disables")
)

func main() {
	flag.Parse()
	logger, err := buildLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqod:", err)
		os.Exit(2)
	}
	if err := run(logger); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

// buildLogger maps -log-format onto a slog handler writing to stderr.
func buildLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

func run(logger *slog.Logger) error {
	if in, err := faultinject.FromEnv(); err != nil {
		return fmt.Errorf("%s: %w", faultinject.EnvVar, err)
	} else if in != nil {
		logger.Warn("FAULT INJECTION ACTIVE — chaos testing only, not for production",
			"env", faultinject.EnvVar, "spec", fmt.Sprint(in))
	}
	eng, store, bootMode, err := buildEngine(logger)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Engine:          eng,
		RequestTimeout:  *reqTimeout,
		MaxTimeout:      *maxTimeout,
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		MonitorInterval: *monitorEvery,
		Store:           store,
		TraceSample:     *traceSample,
		SlowQuery:       *slowQuery,
		BootMode:        bootMode,
		Log:             logger,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	if *debugAddr != "" {
		go serveDebug(*debugAddr, logger)
	}
	errCh := make(chan error, 1)
	go func() {
		cst := eng.Stats().Cache
		logger.Info("serving",
			"addr", *addr, "workers", eng.Workers(), "cache", *cacheSize,
			"canon", cst.Canonicalize, "subsume", cst.Subsume,
			"trace_sample", *traceSample, "slow_query", *slowQuery)
		errCh <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err // bind failure etc.; ListenAndServe never returns nil here
	case <-ctx.Done():
	}

	// Graceful shutdown: flip readiness so load balancers route away, stop
	// accepting, drain in-flight connections, then stop the monitor.
	logger.Info("shutdown: draining", "budget", *drain)
	srv.StartDraining()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	srv.Close()
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if store != nil {
		// Fold the journal into a final snapshot so the next boot is warm
		// with nothing to replay.
		if err := store.WriteSnapshot(eng); err != nil {
			logger.Error("drain snapshot failed (next boot replays the journal)", "err", err)
		} else {
			ss := store.Stats()
			logger.Info("drain snapshot written", "id", fmt.Sprintf("%#x", ss.SnapshotID), "seq", ss.Seq)
		}
		store.Close()
	}
	st := eng.Stats()
	logger.Info("drained",
		"optimizations", st.Optimizations,
		"exact_hits", st.Cache.ExactHits, "canonical_hits", st.Cache.CanonicalHits,
		"subsumption_hits", st.Cache.SubsumptionHits, "swaps", st.CatalogSwaps)
	return nil
}

// serveDebug runs the opt-in debug mux: net/http/pprof's profiling
// endpoints on their own listener, so profile handlers are never exposed on
// the serving address.
func serveDebug(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("debug mux serving", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("debug mux failed", "err", err)
	}
}

// buildEngine assembles the engine from the flags — the logistics evaluation
// world by default, or user-supplied schema/catalog text files — either
// directly, or through a SnapshotStore boot when -snapshot-dir is set. The
// third return is the boot mode for /metrics: "warm", "cold", or "" without
// a snapshot store.
func buildEngine(logger *slog.Logger) (*sqo.Engine, *sqo.SnapshotStore, string, error) {
	sch, cat, opts, err := buildWorld()
	if err != nil {
		return nil, nil, "", err
	}
	if *snapshotDir == "" {
		eng, err := sqo.NewEngine(sch, append(opts, sqo.WithCatalog(cat))...)
		return eng, nil, "", err
	}
	store, err := sqo.OpenSnapshotStore(*snapshotDir)
	if err != nil {
		return nil, nil, "", err
	}
	eng, rep, err := store.Boot(sch, cat, opts...)
	if err != nil {
		return nil, nil, "", err
	}
	mode := "cold"
	if rep.Warm {
		mode = "warm"
		logger.Info("warm boot",
			"dir", *snapshotDir, "snapshot", fmt.Sprintf("%#x", rep.SnapshotID), "seq", rep.Seq,
			"replayed", rep.Replayed, "torn_tail", rep.TornTail, "constraints", rep.Constraints)
	} else {
		logger.Info("cold boot",
			"reason", rep.ColdReason, "constraints", rep.Constraints,
			"snapshot", fmt.Sprintf("%#x", rep.SnapshotID), "seq", rep.Seq)
	}
	return eng, store, mode, nil
}

// buildWorld resolves the schema, declared catalog and catalog-independent
// engine options from the flags.
func buildWorld() (*sqo.Schema, *sqo.Catalog, []sqo.EngineOption, error) {
	sch := sqo.LogisticsSchema()
	if *schemaFile != "" {
		text, err := os.ReadFile(*schemaFile)
		if err != nil {
			return nil, nil, nil, err
		}
		if sch, err = sqo.ParseSchema(string(text)); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", *schemaFile, err)
		}
	}
	cat := sqo.LogisticsConstraints()
	if *catFile != "" {
		text, err := os.ReadFile(*catFile)
		if err != nil {
			return nil, nil, nil, err
		}
		if cat, err = sqo.ParseConstraintCatalog(string(text)); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", *catFile, err)
		}
	}

	opts := []sqo.EngineOption{
		sqo.WithCache(sqo.CacheConfig{
			Capacity:     *cacheSize,
			Canonicalize: *cacheCanon,
			Subsume:      *cacheSub,
		}),
		sqo.WithWorkers(*workers),
		sqo.WithDefaultDeadline(*maxTimeout),
	}
	if *dbName != "" {
		if *schemaFile != "" {
			return nil, nil, nil, errors.New("-db statistics only apply to the logistics schema; use -db '' with -schema")
		}
		cfg, err := dbConfig(*dbName)
		if err != nil {
			return nil, nil, nil, err
		}
		db, err := sqo.GenerateDatabase(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		// The generated instance both calibrates the cost model and backs
		// the end-to-end execution endpoint (POST /query).
		opts = append(opts,
			sqo.WithCostModel(sqo.NewCostModel(sch, db.Analyze(), sqo.DefaultWeights)),
			sqo.WithDatabase(db))
	}
	return sch, cat, opts, nil
}

func dbConfig(name string) (sqo.DBConfig, error) {
	for _, cfg := range sqo.DBConfigs() {
		if strings.EqualFold(cfg.Name, name) {
			return cfg, nil
		}
	}
	return sqo.DBConfig{}, fmt.Errorf("unknown database %q (want DB1..DB4)", name)
}
