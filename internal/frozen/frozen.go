// Package frozen implements the open-addressing hash tables that resolve
// the symbols of a catalog lineage's base generation. symtab.Compile grows
// them while it mints IDs (Add); the snapshot writer builds them at exact
// size and stores each as a plain []int32 slot array; a restore probes those
// arrays in place — no per-entry hashing, map insertion or allocation on the
// warm-boot path. A compiled and a restored generation therefore resolve
// names through the same structure, and only symbols minted after the base
// (by symtab's Patch) live anywhere else.
//
// A Table stores only entry IDs; the keys live in the owner's backing arrays
// (interned strings, pooled predicates), and equality is checked through a
// caller-supplied callback. Hashing is FNV-1a over the key bytes, with the
// owner responsible for feeding fields in a fixed order (Seed / AddString /
// AddByte). Slot counts are powers of two at least twice the entry count, so
// linear probing stays short; probes are bounded by the slot count, which
// keeps Find total even on a corrupted slot array.
package frozen

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Seed returns the initial hash state.
func Seed() uint64 { return fnvOffset64 }

// AddString folds a string into the hash state.
func AddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// AddByte folds one byte into the hash state; used as a field separator so
// composite keys ("ab","c") and ("a","bc") hash apart.
func AddByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

// HashString hashes a standalone string key.
func HashString(s string) uint64 { return AddString(Seed(), s) }

// empty marks an unoccupied slot.
const empty = -1

// Table is an immutable open-addressing hash table over externally stored
// keys. The zero Table is empty and reports every Find as a miss.
type Table struct {
	slots []int32
}

// New returns a table sized for n entries: power-of-two slots, load factor
// at most one half.
func New(n int) Table {
	size := 8
	for size < 2*n {
		size *= 2
	}
	slots := make([]int32, size)
	for i := range slots {
		slots[i] = empty
	}
	return Table{slots: slots}
}

// FromSlots wraps a persisted slot array. ok is false when the array cannot
// be a table New produced (zero or non-power-of-two length, or an ID outside
// [-1, n)); callers treat that as snapshot corruption.
func FromSlots(slots []int32, n int) (Table, bool) {
	if len(slots) == 0 || len(slots)&(len(slots)-1) != 0 {
		return Table{}, false
	}
	for _, id := range slots {
		if id < empty || int(id) >= n {
			return Table{}, false
		}
	}
	return Table{slots: slots}, true
}

// Slots exposes the slot array for serialization; treat as read-only.
func (t Table) Slots() []int32 { return t.slots }

// Empty reports whether the table holds no slots (the zero Table).
func (t Table) Empty() bool { return len(t.slots) == 0 }

// Insert stores id under hash h. Keys must be distinct and the table must
// have been sized (New) for the total entry count; Insert never grows.
func (t Table) Insert(h uint64, id int32) {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if t.slots[i] == empty {
			t.slots[i] = id
			return
		}
	}
}

// Add stores id under hash h in a table holding IDs 0..id-1, first
// rebuilding it at twice the size (rehashing the stored IDs through hashOf)
// when id would take it past half full. Adding IDs 0..n-1 in order, from the
// zero Table, leaves exactly the slots New(n) and n Inserts in ID order
// would, so a table grown while its owner mints IDs matches the one a
// snapshot writer builds for the same entries.
func (t *Table) Add(h uint64, id int32, hashOf func(id int32) uint64) {
	if 2*(int(id)+1) > len(t.slots) {
		*t = New(int(id) + 1)
		for i := int32(0); i < id; i++ {
			t.Insert(hashOf(i), i)
		}
	}
	t.Insert(h, id)
}

// Find probes for a key with hash h, confirming candidate IDs through eq
// (hash collisions make the confirmation mandatory). It returns the stored
// ID and whether the key was present. Probing is bounded by the slot count.
func (t Table) Find(h uint64, eq func(id int32) bool) (int32, bool) {
	if len(t.slots) == 0 {
		return empty, false
	}
	mask := uint64(len(t.slots) - 1)
	for i, n := h&mask, 0; n < len(t.slots); i, n = (i+1)&mask, n+1 {
		id := t.slots[i]
		if id == empty {
			return empty, false
		}
		if eq(id) {
			return id, true
		}
	}
	return empty, false
}
