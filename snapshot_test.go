package sqo_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sqo"
	"sqo/internal/snapshot"
)

// saveRestore round-trips an engine through the snapshot codec in memory
// and boots a fresh engine from the result.
func saveRestore(t testing.TB, eng *sqo.Engine, sch *sqo.Schema, opts ...sqo.EngineOption) *sqo.Engine {
	t.Helper()
	var buf bytes.Buffer
	if _, err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := sqo.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := sqo.NewEngine(sch, append(opts, sqo.WithSnapshot(snap))...)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// TestSnapshotRestoreDifferential is the correctness acceptance bar of the
// persistence layer: an engine restored from a snapshot must be
// byte-identical — optimizer output, per-query stats, final tags — to the
// engine that wrote it, across the logistics world and scaled worlds, for
// generations with and without tombstones, and must stay identical after
// further UpdateCatalog deltas are applied on top of the restored state.
func TestSnapshotRestoreDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep")
	}
	total := 0

	db, err := sqo.GenerateDatabase(sqo.DB1())
	if err != nil {
		t.Fatal(err)
	}
	cat := sqo.LogisticsConstraints()
	gen := sqo.NewWorkloadGenerator(db, cat, sqo.WorkloadOptions{Seed: 43})
	workload, err := gen.Workload(200)
	if err != nil {
		t.Fatal(err)
	}
	total += runSnapshotDifferential(t, "logistics", db.Schema(), cat, workload)

	for _, n := range []int{100, 1000} {
		label := fmt.Sprintf("scaled-%d", n)
		sch, scat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: n, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		qs, err := sqo.ScaledWorkload(sch, scat, 300, 19)
		if err != nil {
			t.Fatal(err)
		}
		total += runSnapshotDifferential(t, label, sch, scat, qs)
	}

	if total < 1000 {
		t.Fatalf("snapshot differential covered only %d queries, want >= 1000", total)
	}
	t.Logf("snapshot differential: %d query comparisons", total)
}

// sameSnapshot requires the restored engine to write the very bytes the
// original writes: one engine state has one snapshot file, whichever way
// (compiled, patched, restored) its symbol space was built.
func sameSnapshot(t *testing.T, label string, restored, eng *sqo.Engine) {
	t.Helper()
	var want, got bytes.Buffer
	if _, err := eng.SaveSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.SaveSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s: restored engine writes a %d-byte snapshot that differs from the original's %d bytes",
			label, got.Len(), want.Len())
	}
}

// runSnapshotDifferential compares restored-vs-original over the workload at
// three lifecycle points: a freshly compiled generation, a delta-mutated
// generation carrying tombstones, and a restored generation mutated further
// (the restored ordinal space must seed the delta lineage exactly where the
// saved one left off). At each point the two engines must also write the
// same snapshot bytes.
func runSnapshotDifferential(t *testing.T, label string, sch *sqo.Schema, cat *sqo.Catalog, qs []*sqo.Query) int {
	t.Helper()
	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0

	restored := saveRestore(t, eng, sch)
	sameSnapshot(t, label+" compiled", restored, eng)
	for _, q := range qs {
		diffDelta(t, label+" compiled", restored, eng, q)
		checked++
	}

	// Mutate the original into a tombstone-carrying generation, snapshot
	// that, and compare again.
	all := cat.All()
	d := sqo.NewCatalogDelta().RemoveConstraints(all[0].ID, all[len(all)/2].ID).
		AddConstraints(all[0])
	if rep, err := eng.UpdateCatalog(d); err != nil || !rep.Incremental {
		t.Fatalf("%s: mutate: %+v, %v", label, rep, err)
	}
	restored = saveRestore(t, eng, sch)
	sameSnapshot(t, label+" tombstoned", restored, eng)
	for _, q := range qs {
		diffDelta(t, label+" tombstoned", restored, eng, q)
		checked++
	}

	// Mutate both sides identically on top of the restore: the restored
	// lineage must keep tracking the original's.
	d2 := sqo.NewCatalogDelta().RemoveConstraints(all[1].ID).AddConstraints(all[len(all)/2])
	if rep, err := eng.UpdateCatalog(d2); err != nil || !rep.Incremental {
		t.Fatalf("%s: post-restore mutate original: %+v, %v", label, rep, err)
	}
	if rep, err := restored.UpdateCatalog(d2); err != nil || !rep.Incremental {
		t.Fatalf("%s: post-restore mutate restored: %+v, %v", label, rep, err)
	}
	sameSnapshot(t, label+" mutated-after-restore", restored, eng)
	for _, q := range qs {
		diffDelta(t, label+" mutated-after-restore", restored, eng, q)
		checked++
	}
	return checked
}

// TestSnapshotConfigErrors pins the construction-time refusals: WithSnapshot
// conflicts with WithCatalog and enforces the schema-hash binding.
func TestSnapshotConfigErrors(t *testing.T) {
	sch := sqo.LogisticsSchema()
	cat := sqo.LogisticsConstraints()
	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := sqo.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := sqo.NewEngine(sch, sqo.WithSnapshot(snap), sqo.WithCatalog(cat)); err == nil {
		t.Error("NewEngine accepted WithSnapshot together with WithCatalog")
	}

	// Schema binding: the same snapshot against a different schema.
	other, _, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sqo.NewEngine(other, sqo.WithSnapshot(snap)); err == nil ||
		!strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch: err = %v, want schema-hash refusal", err)
	}
}

// TestSnapshotStoreBoot drives the store through its whole lifecycle in one
// directory: cold first boot, warm reboot, journaled mutations surviving a
// crash (no drain snapshot), torn-tail truncation, compaction, and the
// refusal paths (schema change, stale journal, journal bound to a different
// snapshot) all falling back to a cold build that re-baselines the store.
func TestSnapshotStoreBoot(t *testing.T) {
	dir := t.TempDir()
	sch := sqo.LogisticsSchema()
	cat := sqo.LogisticsConstraints()
	ctx := context.Background()
	q := sqo.NewQuery("driver").
		AddProject("driver", "name").
		AddSelect(sqo.Eq("driver", "rank", sqo.StringValue("supervisor")))

	boot := func(t *testing.T) (*sqo.SnapshotStore, *sqo.Engine, sqo.BootReport) {
		t.Helper()
		store, err := sqo.OpenSnapshotStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng, rep, err := store.Boot(sch, cat)
		if err != nil {
			t.Fatal(err)
		}
		return store, eng, rep
	}

	// First boot: cold (empty directory), baseline established.
	store, eng, rep := boot(t)
	if rep.Warm || rep.ColdReason != "no snapshot" || rep.Seq != 1 {
		t.Fatalf("first boot report = %+v", rep)
	}
	if _, err := eng.Optimize(ctx, q); err != nil {
		t.Fatal(err)
	}
	store.Close()

	// Second boot: warm, nothing to replay.
	store, eng, rep = boot(t)
	if !rep.Warm || rep.Replayed != 0 || rep.Seq != 1 || rep.Constraints != cat.Len() {
		t.Fatalf("warm reboot report = %+v", rep)
	}

	// Journal two mutations, then crash (Close without a drain snapshot).
	r := freshRule(t)
	if _, err := store.ApplyAndLog(eng, sqo.NewCatalogDelta().AddConstraints(r)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ApplyAndLog(eng, sqo.NewCatalogDelta().RemoveConstraints(r.ID)); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.JournalRecords != 2 {
		t.Fatalf("store stats = %+v, want 2 journal records", st)
	}
	wantConstraints := eng.Stats().Constraints
	store.Close()

	// Crash recovery: warm boot replays both batches.
	store, eng, rep = boot(t)
	if !rep.Warm || rep.Replayed != 2 || rep.TornTail || rep.Constraints != wantConstraints {
		t.Fatalf("crash recovery report = %+v, want 2 replayed", rep)
	}
	diffDelta(t, "replayed vs scratch", eng, scratchEngine(t, sch, eng.Catalog()), q)

	// Torn tail: journal another batch, then cut into its frame. The next
	// boot replays the intact prefix and truncates the tail.
	if _, err := store.ApplyAndLog(eng, sqo.NewCatalogDelta().AddConstraints(freshRule(t))); err != nil {
		t.Fatal(err)
	}
	store.Close()
	jpath := filepath.Join(dir, sqo.JournalFileName)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	store, eng, rep = boot(t)
	if !rep.Warm || !rep.TornTail || rep.Replayed != 2 {
		t.Fatalf("torn tail report = %+v, want warm with 2 replayed", rep)
	}
	// The truncated journal accepts appends again.
	if _, err := store.ApplyAndLog(eng, sqo.NewCatalogDelta().AddConstraints(freshRule(t))); err != nil {
		t.Fatal(err)
	}
	store.Close()

	// Compaction: from a freshly rotated (empty) journal with a threshold
	// of 2, the second ApplyAndLog folds the journal into a new snapshot
	// and rotates it empty again.
	store, eng, rep = boot(t)
	if err := store.WriteSnapshot(eng); err != nil {
		t.Fatal(err)
	}
	seqBefore := store.Stats().Seq
	store.CompactRecords = 2
	if _, err := store.ApplyAndLog(eng, sqo.NewCatalogDelta().AddConstraints(freshRule(t))); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.JournalRecords != 1 || st.Seq != seqBefore {
		t.Fatalf("pre-compaction stats = %+v, want 1 journal record at seq %d", st, seqBefore)
	}
	r2 := freshRule(t)
	if _, err := store.ApplyAndLog(eng, sqo.NewCatalogDelta().AddConstraints(r2)); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.JournalRecords != 0 || st.Seq != seqBefore+1 {
		t.Fatalf("post-compaction stats = %+v, want empty journal at seq %d", st, seqBefore+1)
	}
	store.Close()
	store, eng, rep = boot(t)
	if !rep.Warm || rep.Replayed != 0 {
		t.Fatalf("post-compaction boot = %+v", rep)
	}
	if got := eng.Catalog().All(); got[len(got)-1].ID != r2.ID {
		t.Fatal("compacted snapshot lost the folded mutation")
	}

	// Stale journal (interrupted compaction): a journal one seq behind the
	// snapshot is ignored, not replayed and not fatal.
	writeJournalHeader := func(h snapshot.JournalHeader) {
		t.Helper()
		j, err := snapshot.CreateJournal(jpath, h)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
	}
	hdr, _, _, err := snapshot.ReplayJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	writeJournalHeader(snapshot.JournalHeader{
		Version: snapshot.FormatVersion, SchemaHash: hdr.SchemaHash,
		SnapID: 0xdead, Seq: hdr.Seq - 1,
	})
	store, _, rep = boot(t)
	if !rep.Warm || rep.Replayed != 0 {
		t.Fatalf("stale journal report = %+v, want warm with stale journal ignored", rep)
	}
	store.Close()

	// Journal bound to a different snapshot at the same seq: refuse warm,
	// cold-build, re-baseline.
	writeJournalHeader(snapshot.JournalHeader{
		Version: snapshot.FormatVersion, SchemaHash: hdr.SchemaHash,
		SnapID: 0xdead, Seq: hdr.Seq + 1,
	})
	store, _, rep = boot(t)
	if rep.Warm || !strings.Contains(rep.ColdReason, "does not extend") {
		t.Fatalf("skewed journal report = %+v, want cold", rep)
	}
	seqAfterSkew := rep.Seq
	store.Close()

	// Schema change: warm refusal with a cold rebuild over the new schema.
	other, ocat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	store, err = sqo.OpenSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err = store.Boot(other, ocat)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Warm || !strings.Contains(rep.ColdReason, "schema") || rep.Seq != seqAfterSkew+1 {
		t.Fatalf("schema change report = %+v, want cold with bumped seq", rep)
	}
	store.Close()
}

func scratchEngine(t *testing.T, sch *sqo.Schema, cat *sqo.Catalog) *sqo.Engine {
	t.Helper()
	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSnapshotStoreRejectsBadOptions pins Boot's option validation: a
// catalog source among the options is a configuration error, not a
// cold-boot fallback.
func TestSnapshotStoreRejectsBadOptions(t *testing.T) {
	cat := sqo.LogisticsConstraints()
	store, err := sqo.OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Boot(sqo.LogisticsSchema(), cat, sqo.WithCatalog(cat)); err == nil {
		t.Error("Boot accepted a catalog option")
	}
}

// TestWarmBootSpeedup is the performance acceptance bar of the persistence
// layer: at 10⁴ rules, restoring an engine from its snapshot file (read +
// decode + adopt) versus the cold boot it replaces — parse the rule text,
// validate it against the schema, compile the engine. That is what a node
// without a snapshot actually does at startup (see cmd/sqod), so it is the
// operationally honest baseline. The warm path performs zero hash-map
// insertions and views the file's arrays in place; measured single-core
// ratios are ~15-20x (and the decode is chunk-parallel, so multi-core
// hardware lands well past the 50x roadmap target). The enforced bar is
// 10x — same policy as the delta-path speedup gates — leaving headroom for
// noisy single-core CI machines.
func TestWarmBootSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing ratio; the non-race CI job runs this")
	}
	sch, cat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: 10000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	text := renderCatalogText(cat)
	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), sqo.SnapshotFileName)
	if _, err := eng.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	// Best-of-N with a forced GC per pass: each boot leaves tens of MB of
	// garbage, and without the collection the next pass pays its GC assist,
	// which on a 1-core CI machine swamps the quantity being measured.
	best := func(passes int, f func()) time.Duration {
		b := time.Duration(1<<62 - 1)
		for i := 0; i < passes; i++ {
			runtime.GC()
			start := time.Now()
			f()
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	warm := best(10, func() {
		snap, err := sqo.LoadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sqo.NewEngine(sch, sqo.WithSnapshot(snap)); err != nil {
			t.Fatal(err)
		}
	})
	cold := best(5, func() {
		parsed, err := sqo.ParseConstraintCatalog(text)
		if err != nil {
			t.Fatal(err)
		}
		if err := parsed.Validate(sch); err != nil {
			t.Fatal(err)
		}
		if _, err := sqo.NewEngine(sch, sqo.WithCatalog(parsed)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("10⁴-rule catalog: warm restore %v, cold boot (parse+validate+compile) %v (%.1fx)",
		warm, cold, float64(cold)/float64(warm))
	if cold < warm*10 {
		t.Errorf("warm restore is only %.1fx faster than a cold boot, want >= 10x (warm %v, cold %v)",
			float64(cold)/float64(warm), warm, cold)
	}
}

// TestWarmBootAllocations is the deterministic companion of
// TestWarmBootSpeedup: a warm boot builds no per-constraint objects (the
// restored ordinal space builds each constraint on first use), so its
// allocation count does not grow with the catalog, and the bytes it
// allocates stay within a small multiple of the snapshot file it adopts in
// place.
func TestWarmBootAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job runs this")
	}
	type cost struct {
		allocs float64
		bytes  uint64
		file   int64
	}
	measure := func(rules int) cost {
		sch, cat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: rules, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), sqo.SnapshotFileName)
		if _, err := eng.WriteSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		boot := func() {
			snap, err := sqo.LoadSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sqo.NewEngine(sch, sqo.WithSnapshot(snap)); err != nil {
				t.Fatal(err)
			}
		}
		c := cost{allocs: testing.AllocsPerRun(5, boot), file: fi.Size()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		boot()
		runtime.ReadMemStats(&after)
		c.bytes = after.TotalAlloc - before.TotalAlloc
		return c
	}
	small, large := measure(1000), measure(10000)
	t.Logf("warm boot: 10³ rules %.0f allocs %d B (file %d B); 10⁴ rules %.0f allocs %d B (file %d B)",
		small.allocs, small.bytes, small.file, large.allocs, large.bytes, large.file)
	if large.allocs > small.allocs+16 {
		t.Errorf("warm boot allocations grow with the catalog: %.0f at 10³ rules, %.0f at 10⁴",
			small.allocs, large.allocs)
	}
	if large.bytes > 3*uint64(large.file) {
		t.Errorf("warm boot at 10⁴ rules allocated %d B, more than 3× its %d B snapshot file",
			large.bytes, large.file)
	}
}

// renderCatalogText serializes a catalog back to the rule-file syntax that
// ParseConstraintCatalog reads, giving timing tests the same input a node's
// cold boot starts from.
func renderCatalogText(cat *sqo.Catalog) string {
	var sb strings.Builder
	for _, c := range cat.All() {
		sb.WriteString(c.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSnapshotRestoredCachedHitZeroAlloc extends the interned-hot-path
// guarantee to restored engines: a cache hit served by a snapshot-restored
// engine must not allocate, proving the frozen lookup tables serve the
// fingerprint path as cleanly as compiled maps do.
func TestSnapshotRestoredCachedHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job runs this")
	}
	sch := sqo.LogisticsSchema()
	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(sqo.LogisticsConstraints()))
	if err != nil {
		t.Fatal(err)
	}
	restored := saveRestore(t, eng, sch, sqo.WithCache(sqo.CacheConfig{Capacity: 64}))
	ctx := context.Background()
	q := sqo.NewQuery("driver").
		AddProject("driver", "name").
		AddSelect(sqo.Eq("driver", "rank", sqo.StringValue("supervisor")))
	if _, err := restored.Optimize(ctx, q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := restored.Optimize(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached Optimize on a restored engine = %.1f allocs/op, want 0", allocs)
	}
	if restored.Stats().Cache.Hits() == 0 {
		t.Fatal("no cache hits recorded; the zero-alloc check measured the wrong path")
	}
}

// BenchmarkSnapshotBoot compares the two ways to reach serving state at
// 10⁴ rules: the cold boot (parse the rule text, validate, compile) versus
// loading the snapshot (file read + decode + adopt). The ratio is the whole
// point of the persistence layer; CI tracks both series.
func BenchmarkSnapshotBoot(b *testing.B) {
	sch, cat, err := sqo.GenerateScaledWorld(sqo.ScaledConfig{Constraints: 10000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold/catalog=10000", func(b *testing.B) {
		text := renderCatalogText(cat)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			parsed, err := sqo.ParseConstraintCatalog(text)
			if err != nil {
				b.Fatal(err)
			}
			if err := parsed.Validate(sch); err != nil {
				b.Fatal(err)
			}
			if _, err := sqo.NewEngine(sch, sqo.WithCatalog(parsed)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm/catalog=10000", func(b *testing.B) {
		eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat))
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), sqo.SnapshotFileName)
		if _, err := eng.WriteSnapshotFile(path); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap, err := sqo.LoadSnapshot(path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sqo.NewEngine(sch, sqo.WithSnapshot(snap)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
