package sqo

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sqo/internal/delta"
	"sqo/internal/faultinject"
	"sqo/internal/snapshot"
)

// Snapshot store file names inside the store directory.
const (
	SnapshotFileName = "catalog.sqos"
	JournalFileName  = "journal.sqoj"
)

// DefaultCompactRecords is the journal length at which ApplyAndLog folds the
// journal into a fresh snapshot. At the default, a crash-restart replays at
// most this many delta batches on top of an O(read) snapshot load.
const DefaultCompactRecords = 4096

// SnapshotStore manages the persistence pair a serving node keeps in one
// directory: the current catalog snapshot (catalog.sqos) and the delta
// journal extending it (journal.sqoj). Boot restores an engine from them,
// ApplyAndLog keeps them in step with every catalog mutation, and
// compaction periodically folds the journal back into the snapshot.
//
// Crash-safety contract (normative rules in docs/SNAPSHOT_FORMAT.md):
// snapshots replace atomically via temp+rename; journal records are framed
// and checksummed so a torn tail truncates cleanly; and a new snapshot is
// durable on disk *before* its journal rotates, so a crash between the two
// leaves a stale journal (seq one behind) that Boot provably ignores.
type SnapshotStore struct {
	dir string

	// CompactRecords is the journal-length compaction threshold. Set it
	// before the first ApplyAndLog; zero means DefaultCompactRecords.
	CompactRecords int

	mu     sync.Mutex
	jrn    *snapshot.Journal
	seq    uint64 // sequence of the snapshot currently on disk (0: none)
	snapID uint64

	// faults is the chaos harness for the store's file I/O (journal.append,
	// journal.partial, snapshot.write, snapshot.corrupt); nil in production.
	faults *faultinject.Injector
}

// OpenSnapshotStore opens (creating if needed) a snapshot store directory.
// The store is inert until Boot; Boot decides warm versus cold and leaves
// the store ready for ApplyAndLog. When SQO_FAULTS configures snapshot.* or
// journal.* rules, the store's file I/O runs under injection.
func OpenSnapshotStore(dir string) (*SnapshotStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in, err := faultinject.FromEnv()
	if err != nil {
		return nil, err
	}
	s := &SnapshotStore{dir: dir}
	if in.Active("journal.") || in.Active("snapshot.") {
		s.faults = in
	}
	return s, nil
}

// journalFault adapts the injector to the journal's partial-write hook:
// journal.append fails before any byte lands; journal.partial writes a
// prefix of the frame and then fails, leaving a genuine torn tail.
func (s *SnapshotStore) journalFault(frame []byte) (int, error) {
	if err := s.faults.Fire("journal.append"); err != nil {
		return 0, err
	}
	if keep, fire := s.faults.Partial("journal.partial", len(frame)); fire {
		return keep, fmt.Errorf("%w: journal.partial", faultinject.ErrInjected)
	}
	return 0, nil
}

// bindJournal installs the fault hook (when injection is live) and adopts j
// as the store's journal.
func (s *SnapshotStore) bindJournal(j *snapshot.Journal) {
	if s.faults != nil {
		j.Fault = s.journalFault
	}
	s.jrn = j
}

func (s *SnapshotStore) snapshotPath() string { return filepath.Join(s.dir, SnapshotFileName) }
func (s *SnapshotStore) journalPath() string  { return filepath.Join(s.dir, JournalFileName) }

// BootReport says how Boot reached serving state.
type BootReport struct {
	Warm        bool   // engine restored from the snapshot (vs cold-built)
	ColdReason  string // why warm restore was not possible ("" when Warm)
	Replayed    int    // journal batches replayed onto the restored engine
	TornTail    bool   // the journal had a torn tail (truncated away)
	SnapshotID  uint64 // identity of the snapshot now backing the store
	Seq         uint64 // its sequence number
	Constraints int    // live constraints serving after boot
}

// Boot brings up an engine from the store: a warm restore of the snapshot
// plus a replay of the journal tail when both are sound, otherwise a cold
// build from the supplied catalog. Either way the store ends consistent —
// a cold boot immediately writes a fresh snapshot and journal, so the next
// restart is warm again.
//
// cat is the declared catalog to cold-build from (also the first-boot
// path, when the directory is empty). opts apply to the engine either way;
// they must not include WithCatalog or WithSnapshot.
//
// Warm restore refuses — and falls back to a cold build — on: a missing,
// truncated or checksum-failing snapshot; a snapshot format-version or
// schema skew; an unreadable journal; a journal bound to a different
// schema; or a journal whose (snapID, seq) binding matches neither the
// snapshot nor the stale-after-compaction-crash pattern (seq exactly one
// behind). A torn journal tail is NOT a refusal: the valid prefix replays
// and the tail — at most one unacknowledged batch — truncates away.
func (s *SnapshotStore) Boot(sch *Schema, cat *Catalog, opts ...EngineOption) (*Engine, BootReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	var probe engineConfig
	for _, o := range opts {
		o(&probe)
	}
	if probe.catalog != nil || probe.snap != nil {
		return nil, BootReport{}, errors.New("sqo: Boot options must not choose a catalog source; pass the catalog as the Boot argument")
	}

	eng, rep, err := s.tryWarm(sch, opts)
	if err != nil {
		return nil, BootReport{}, err
	}
	if eng == nil {
		eng, err = NewEngine(sch, append(append([]EngineOption{}, opts...), WithCatalog(cat))...)
		if err != nil {
			return nil, BootReport{}, err
		}
		if werr := s.writeSnapshotLocked(eng); werr != nil {
			return nil, BootReport{}, fmt.Errorf("sqo: cold boot could not establish snapshot baseline: %w", werr)
		}
	}
	rep.SnapshotID, rep.Seq = s.snapID, s.seq
	rep.Constraints = eng.state.Load().gen.Live()
	return eng, rep, nil
}

// tryWarm attempts the warm path. It returns (nil, reportWithColdReason,
// nil) for every recoverable refusal — only environmental failures (I/O on
// a structurally sound store) surface as errors.
func (s *SnapshotStore) tryWarm(sch *Schema, opts []EngineOption) (*Engine, BootReport, error) {
	rep := BootReport{}
	refuse := func(format string, args ...any) (*Engine, BootReport, error) {
		rep.Warm = false
		rep.ColdReason = fmt.Sprintf(format, args...)
		return nil, rep, nil
	}

	snapData, err := os.ReadFile(s.snapshotPath())
	if errors.Is(err, os.ErrNotExist) {
		return refuse("no snapshot")
	}
	if err != nil {
		return nil, rep, err
	}
	// Chaos seam: a flipped byte must land in "snapshot unreadable" (the
	// checksum catches it) and a clean cold build, never a bad restore.
	snapData = s.faults.Corrupt("snapshot.corrupt", snapData)
	// Keep the sequence monotonic even when this boot ends cold: a fresh
	// baseline written over a refused snapshot must supersede it.
	if info, err := snapshot.ReadInfo(snapData); err == nil && info.Seq > s.seq {
		s.seq = info.Seq
	}
	snap, err := decodeSnapshot(snapData)
	if err != nil {
		return refuse("snapshot unreadable: %v", err)
	}
	sh := schemaHash(sch)
	if snap.info.SchemaHash != sh {
		return refuse("snapshot schema %#016x differs from serving schema %#016x", snap.info.SchemaHash, sh)
	}

	// Relate the journal to the snapshot before building anything.
	var batches [][]delta.Op
	jpath := s.journalPath()
	if _, err := os.Stat(jpath); errors.Is(err, os.ErrNotExist) {
		batches = nil // fresh journal below
	} else if err != nil {
		return nil, rep, err
	} else {
		hdr, replayed, info, err := snapshot.ReplayJournal(jpath)
		if err != nil {
			return refuse("journal unreadable: %v", err)
		}
		switch {
		case hdr.SchemaHash != sh:
			return refuse("journal schema %#016x differs from serving schema %#016x", hdr.SchemaHash, sh)
		case hdr.SnapID == snap.info.ID && hdr.Seq == snap.info.Seq:
			batches = replayed
			rep.TornTail = info.Torn
		case hdr.Seq+1 == snap.info.Seq:
			// Compaction crashed between the snapshot rename and the journal
			// rotation: every record here is already folded into the
			// snapshot. Ignore the stale journal; a fresh one is created
			// below.
			batches = nil
		default:
			return refuse("journal (snap %#x seq %d) does not extend snapshot (id %#x seq %d)",
				hdr.SnapID, hdr.Seq, snap.info.ID, snap.info.Seq)
		}
	}

	eng, err := NewEngine(sch, append(append([]EngineOption{}, opts...), WithSnapshot(snap))...)
	if err != nil {
		return refuse("restore rejected: %v", err)
	}
	for i, ops := range batches {
		if _, err := eng.UpdateCatalog(&CatalogDelta{ops: ops}); err != nil {
			// A journaled batch that applied cleanly before the restart must
			// apply again; failure means snapshot and journal diverged.
			return refuse("journal replay diverged at record %d: %v", i, err)
		}
	}

	s.seq, s.snapID = snap.info.Seq, snap.info.ID
	if batches == nil && !rep.TornTail {
		// No usable journal on disk (absent, or stale post-compaction):
		// start a fresh one bound to the snapshot.
		j, err := snapshot.CreateJournal(jpath, snapshot.JournalHeader{
			Version: snapshot.FormatVersion, SchemaHash: sh, SnapID: s.snapID, Seq: s.seq,
		})
		if err != nil {
			return nil, rep, err
		}
		s.bindJournal(j)
	} else {
		// Reopen for append; OpenJournal truncates the torn tail (if any) so
		// the next append lands on a clean frame boundary.
		j, _, _, err := snapshot.OpenJournal(jpath)
		if err != nil {
			return nil, rep, err
		}
		s.bindJournal(j)
	}
	rep.Warm = true
	rep.Replayed = len(batches)
	return eng, rep, nil
}

// ApplyAndLog applies a catalog delta to the engine and makes it durable:
// UpdateCatalog first, then a journal append of the same ops, then — when
// the journal has grown past CompactRecords, or the engine fell off the
// incremental path (it rebuilt anyway, so snapshotting now is compara-
// tively free) — a compaction that folds the journal into a new snapshot.
//
// A failed journal append degrades to the snapshot path: the append may
// have left a torn frame, and any record a later append landed behind it
// would be silently dropped at replay — so the applied delta is folded into
// a full snapshot (rotating the journal clean) instead. Only when that
// fallback also fails is an error returned; the in-memory engine is then
// ahead of durable state, and the store refuses further mutations until
// re-opened, so the divergence cannot widen silently.
func (s *SnapshotStore) ApplyAndLog(e *Engine, d *CatalogDelta) (UpdateReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jrn == nil {
		return UpdateReport{}, errors.New("sqo: snapshot store journal is unavailable (not booted, or disabled after a durability failure)")
	}
	rep, err := e.UpdateCatalog(d)
	if err != nil || d.Empty() {
		return rep, err
	}
	if !rep.Incremental {
		return rep, s.writeSnapshotLocked(e)
	}
	if err := s.jrn.Append(d.ops); err != nil {
		if serr := s.writeSnapshotLocked(e); serr != nil {
			if s.jrn != nil {
				s.jrn.Close()
				s.jrn = nil
			}
			return rep, fmt.Errorf("sqo: journal append: %w (snapshot fallback failed: %v; delta applied in memory, durability not guaranteed)", err, serr)
		}
		return rep, nil
	}
	limit := s.CompactRecords
	if limit <= 0 {
		limit = DefaultCompactRecords
	}
	if s.jrn.Records() >= limit {
		return rep, s.writeSnapshotLocked(e)
	}
	return rep, nil
}

// WriteSnapshot folds the engine's current generation into a fresh
// snapshot and rotates the journal. Servers call it on drain so the next
// boot is warm with an empty journal; it is also the compaction step
// ApplyAndLog triggers automatically.
func (s *SnapshotStore) WriteSnapshot(e *Engine) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeSnapshotLocked(e)
}

// writeSnapshotLocked is the compaction core. Ordering is the crash-safety
// story: the new snapshot is fully durable under its final name before the
// journal rotates, so the only crash window leaves new-snapshot +
// old-journal — which Boot detects by the seq gap and ignores.
func (s *SnapshotStore) writeSnapshotLocked(e *Engine) error {
	m := e.snapshotModel(s.seq + 1)
	data, id, err := snapshot.Encode(m)
	if err != nil {
		return err
	}
	if err := s.faults.Fire("snapshot.write"); err != nil {
		return err
	}
	if err := writeFileAtomic(s.snapshotPath(), data); err != nil {
		return err
	}
	s.seq, s.snapID = s.seq+1, id

	if s.jrn != nil {
		s.jrn.Close()
		s.jrn = nil
	}
	j, err := snapshot.CreateJournal(s.journalPath(), snapshot.JournalHeader{
		Version: snapshot.FormatVersion, SchemaHash: m.SchemaHash, SnapID: id, Seq: s.seq,
	})
	if err != nil {
		return err
	}
	s.bindJournal(j)
	return nil
}

// StoreStats is a point-in-time view of the store.
type StoreStats struct {
	SnapshotID     uint64
	Seq            uint64
	JournalRecords int
}

// Stats reports the store's current snapshot identity and journal length.
func (s *SnapshotStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{SnapshotID: s.snapID, Seq: s.seq}
	if s.jrn != nil {
		st.JournalRecords = s.jrn.Records()
	}
	return st
}

// Close closes the journal. The store can be reopened with a fresh
// OpenSnapshotStore + Boot.
func (s *SnapshotStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jrn == nil {
		return nil
	}
	err := s.jrn.Close()
	s.jrn = nil
	return err
}
