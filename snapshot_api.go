package sqo

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"

	"sqo/internal/core"
	"sqo/internal/delta"
	"sqo/internal/schema"
	"sqo/internal/snapshot"
)

// Snapshot is a loaded catalog snapshot: one compiled generation — interned
// symbol space, constraint ordinal space, retrieval index — decoded from the
// versioned on-disk format (docs/SNAPSHOT_FORMAT.md). Feed it to NewEngine
// via WithSnapshot for a warm start that skips catalog validation, symbol
// compilation and index construction entirely.
//
// A Snapshot is immutable and may only be used once per engine: the engine
// adopts its structures rather than copying them.
type Snapshot struct {
	model *snapshot.Model
	info  snapshot.Info
}

// ID is the snapshot's content identity (a digest of its section
// checksums). Two snapshots of identical state share an ID.
func (s *Snapshot) ID() uint64 { return s.info.ID }

// Seq is the snapshot's store sequence number (0 for snapshots written
// outside a SnapshotStore, e.g. by sqopt -compile).
func (s *Snapshot) Seq() uint64 { return s.info.Seq }

// SchemaHash is the canonical hash of the schema the snapshot was compiled
// against. NewEngine refuses a snapshot whose hash differs from its schema.
func (s *Snapshot) SchemaHash() uint64 { return s.info.SchemaHash }

// Constraints returns the number of live constraints in the snapshot.
func (s *Snapshot) Constraints() int {
	n := 0
	for _, d := range s.model.Dead {
		if !d {
			n++
		}
	}
	return n
}

// ReadSnapshot decodes a snapshot from a reader (checksums verified).
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sqo: reading snapshot: %w", err)
	}
	return decodeSnapshot(data)
}

// LoadSnapshot reads and decodes a snapshot file.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// decodeSnapshot decodes one snapshot file's bytes (checksums verified).
func decodeSnapshot(data []byte) (*Snapshot, error) {
	m, info, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	return &Snapshot{model: m, info: info}, nil
}

// WithSnapshot boots the engine from a loaded snapshot instead of compiling
// a catalog: the generation's symbol space, ordinal space and index are
// adopted as-is, making construction O(already decoded). Mutually exclusive
// with WithCatalog. The snapshot's schema hash must match the engine's
// schema.
//
// UpdateCatalog and SwapCatalog work normally on a restored engine; the
// restored generation seeds the mutation lineage exactly where the saved
// one left off.
func WithSnapshot(s *Snapshot) EngineOption {
	return func(c *engineConfig) { c.snap = s }
}

// schemaHashes memoizes schemaHash per schema pointer. Schemas are immutable
// once built, and rendering one is ~40% of an otherwise O(read) warm boot,
// so the render is paid once per schema, not once per hash use.
var schemaHashes sync.Map // *Schema -> uint64

// schemaHash is the canonical schema identity bound into snapshots and
// journals: FNV-1a over the schema's canonical text rendering (Render is a
// fixpoint, so semantically identical schemas hash identically).
func schemaHash(s *Schema) uint64 {
	if v, ok := schemaHashes.Load(s); ok {
		return v.(uint64)
	}
	h := fnv.New64a()
	io.WriteString(h, schema.Render(s))
	sum := h.Sum64()
	schemaHashes.Store(s, sum)
	return sum
}

// restoreState adopts a decoded snapshot model as one engine generation,
// tombstones included, whose catalog view materializes lazily, exactly like
// a patched generation's.
func (e *Engine) restoreState(m *snapshot.Model, epoch uint64) *engineState {
	return &engineState{
		index: m.Index,
		syms:  m.Syms,
		gen:   delta.NewGen(m.All, m.Dead),
		opt:   core.NewOptimizerSymbols(e.schema, m.Index, m.Syms, e.effectiveCoreOpts()),
		epoch: epoch,
	}
}

// snapshotModel captures the current generation as a snapshot model.
func (e *Engine) snapshotModel(seq uint64) *snapshot.Model {
	st := e.state.Load()
	all, dead := st.gen.Ordinals()
	return &snapshot.Model{
		SchemaHash: schemaHash(e.schema),
		Seq:        seq,
		All:        all,
		Dead:       dead,
		Syms:       st.syms,
		Index:      st.index,
	}
}

// SaveSnapshot serializes the engine's current catalog generation to w in
// the versioned snapshot format and returns the snapshot id. The write
// captures one consistent generation: concurrent Optimize traffic is
// unaffected, and a concurrent UpdateCatalog simply lands in the generation
// before or after the capture.
func (e *Engine) SaveSnapshot(w io.Writer) (uint64, error) {
	data, id, err := snapshot.Encode(e.snapshotModel(0))
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(data); err != nil {
		return 0, err
	}
	return id, nil
}

// WriteSnapshotFile saves the current generation to path atomically:
// the bytes land in a temp file in the same directory, are fsynced, and
// rename into place — a crash mid-write never leaves a torn snapshot where
// a boot would look for one.
func (e *Engine) WriteSnapshotFile(path string) (uint64, error) {
	data, id, err := snapshot.Encode(e.snapshotModel(0))
	if err != nil {
		return 0, err
	}
	if err := writeFileAtomic(path, data); err != nil {
		return 0, err
	}
	return id, nil
}

// writeFileAtomic writes data to path via a same-directory temp file,
// fsync, and rename.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Make the rename itself durable; non-fatal where directories cannot be
	// fsynced (some filesystems), since the data file already is.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
