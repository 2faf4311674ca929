package frozen

import (
	"fmt"
	"testing"
)

func TestTableInsertFind(t *testing.T) {
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i*7)
	}
	tb := New(len(keys))
	for i, k := range keys {
		tb.Insert(HashString(k), int32(i))
	}
	for i, k := range keys {
		id, ok := tb.Find(HashString(k), func(id int32) bool { return keys[id] == k })
		if !ok || int(id) != i {
			t.Fatalf("Find(%q) = %d, %v; want %d, true", k, id, ok, i)
		}
	}
	for _, k := range []string{"absent", "key-1", "key-3500"} {
		if _, ok := tb.Find(HashString(k), func(id int32) bool { return keys[id] == k }); ok {
			t.Fatalf("Find(%q) unexpectedly hit", k)
		}
	}
}

// TestAddMatchesNew: growing a table one ID at a time from the zero Table
// ends at the exact slot array New plus in-order Inserts builds, for every
// entry count across several doublings.
func TestAddMatchesNew(t *testing.T) {
	hashOf := func(id int32) uint64 { return HashString(fmt.Sprintf("k%d", id)) }
	for n := 0; n <= 70; n++ {
		var grown Table
		for id := int32(0); id < int32(n); id++ {
			grown.Add(hashOf(id), id, hashOf)
		}
		want := New(n)
		for id := int32(0); id < int32(n); id++ {
			want.Insert(hashOf(id), id)
		}
		if n == 0 {
			if !grown.Empty() {
				t.Fatal("zero adds grew the table")
			}
			continue
		}
		if fmt.Sprint(grown.Slots()) != fmt.Sprint(want.Slots()) {
			t.Fatalf("n=%d: grown slots %v, want %v", n, grown.Slots(), want.Slots())
		}
	}
}

func TestZeroTableMisses(t *testing.T) {
	var tb Table
	if !tb.Empty() {
		t.Fatal("zero Table not Empty")
	}
	if _, ok := tb.Find(HashString("x"), func(int32) bool { return true }); ok {
		t.Fatal("zero Table Find hit")
	}
}

func TestFromSlotsValidation(t *testing.T) {
	tb := New(3)
	tb.Insert(HashString("a"), 0)
	tb.Insert(HashString("b"), 1)
	tb.Insert(HashString("c"), 2)
	if _, ok := FromSlots(tb.Slots(), 3); !ok {
		t.Fatal("valid slots rejected")
	}
	if _, ok := FromSlots(nil, 0); ok {
		t.Fatal("empty slots accepted")
	}
	if _, ok := FromSlots(make([]int32, 7), 3); ok {
		t.Fatal("non-power-of-two slots accepted")
	}
	bad := append([]int32(nil), tb.Slots()...)
	bad[0] = 99
	if _, ok := FromSlots(bad, 3); ok {
		t.Fatal("out-of-range ID accepted")
	}
}

func TestFullTableFindTerminates(t *testing.T) {
	// A corrupted slot array with no empty slots must not loop forever.
	slots := make([]int32, 8)
	for i := range slots {
		slots[i] = 0
	}
	tb := Table{slots: slots}
	if _, ok := tb.Find(12345, func(int32) bool { return false }); ok {
		t.Fatal("unexpected hit")
	}
}

func TestCompositeHashSeparators(t *testing.T) {
	h1 := AddString(AddByte(AddString(Seed(), "ab"), 0xff), "c")
	h2 := AddString(AddByte(AddString(Seed(), "a"), 0xff), "bc")
	if h1 == h2 {
		t.Fatal("separator failed to split composite keys")
	}
}
