package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"sqo/internal/constraint"
	"sqo/internal/index"
	"sqo/internal/predicate"
	"sqo/internal/schema"
	"sqo/internal/symtab"
	"sqo/internal/value"
)

// testWorld builds a small logistics-flavored schema and catalog directly
// (mirroring the symtab tests — datagen would drag in a test-only cycle),
// with enough variety to exercise every codec path: string/int selections,
// joins, docs, empty antecedent lists and an implication chain.
func testWorld(t *testing.T) (*schema.Schema, []*constraint.Constraint) {
	t.Helper()
	sch, err := schema.NewBuilder().
		Class("vehicle",
			schema.Attribute{Name: "desc", Type: value.KindString, Indexed: true},
			schema.Attribute{Name: "class", Type: value.KindInt},
			schema.Attribute{Name: "capacity", Type: value.KindInt}).
		Class("cargo",
			schema.Attribute{Name: "desc", Type: value.KindString},
			schema.Attribute{Name: "weight", Type: value.KindInt, Indexed: true}).
		Class("driver",
			schema.Attribute{Name: "licenseClass", Type: value.KindInt}).
		Relationship("collects", "vehicle", "cargo", schema.OneToMany).
		Relationship("operates", "driver", "vehicle", schema.OneToOne).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	sd := constraint.New("c5",
		[]predicate.Predicate{predicate.Sel("vehicle", "capacity", predicate.LE, value.Int(3))},
		nil,
		predicate.Sel("vehicle", "class", predicate.LE, value.Int(2)))
	sd.StateDependent = true
	all := []*constraint.Constraint{
		constraint.New("c1",
			[]predicate.Predicate{predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))},
			[]string{"collects"},
			predicate.Eq("cargo", "desc", value.String("frozen food"))).
			WithDoc("refrigerated trucks can only carry frozen food"),
		constraint.New("c2",
			[]predicate.Predicate{predicate.Sel("cargo", "weight", predicate.GT, value.Int(100))},
			[]string{"collects"},
			predicate.Sel("vehicle", "capacity", predicate.GE, value.Int(10))),
		constraint.New("c3",
			[]predicate.Predicate{predicate.Sel("cargo", "weight", predicate.GT, value.Int(50))},
			[]string{"collects", "operates"},
			predicate.Join("driver", "licenseClass", predicate.GE, "vehicle", "class")),
		constraint.New("c4", nil, nil,
			predicate.Sel("vehicle", "capacity", predicate.GE, value.Int(1))),
		sd,
	}
	return sch, all
}

func testModel(t *testing.T, sch *schema.Schema, all []*constraint.Constraint, dead []bool) *Model {
	t.Helper()
	if dead == nil {
		dead = make([]bool, len(all))
	}
	syms := symtab.Compile(sch, all)
	return &Model{
		SchemaHash: 0xfeedface,
		Seq:        7,
		All:        constraint.OrdinalsOf(all),
		Dead:       dead,
		Syms:       syms,
		Index:      index.BuildWith(all, syms),
	}
}

func sameConstraint(t *testing.T, got, want *constraint.Constraint) {
	t.Helper()
	if got.ID != want.ID || got.Doc != want.Doc || got.StateDependent != want.StateDependent {
		t.Fatalf("constraint %s: scalar fields differ: got %+v", want.ID, got)
	}
	if got.Key() != want.Key() || got.Kind() != want.Kind() {
		t.Fatalf("constraint %s: derived fields differ: key %q/%q kind %v/%v",
			want.ID, got.Key(), want.Key(), got.Kind(), want.Kind())
	}
	if !reflect.DeepEqual(got.Antecedents, want.Antecedents) {
		t.Fatalf("constraint %s: antecedents differ", want.ID)
	}
	if got.Consequent != want.Consequent {
		t.Fatalf("constraint %s: consequent differs", want.ID)
	}
	if !reflect.DeepEqual(got.Classes(), want.Classes()) || !reflect.DeepEqual(got.Links, want.Links) {
		t.Fatalf("constraint %s: classes/links differ", want.ID)
	}
}

// TestRoundTrip encodes a model and decodes it back, comparing every
// restored structure field-for-field against the original.
func TestRoundTrip(t *testing.T) {
	sch, all := testWorld(t)
	m := testModel(t, sch, all, nil)
	data, id, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("zero snapshot id")
	}

	got, info, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != id || info.Seq != 7 || info.SchemaHash != 0xfeedface || info.Version != FormatVersion {
		t.Fatalf("info = %+v", info)
	}
	if got.All.Len() != len(all) {
		t.Fatalf("%d constraints, want %d", got.All.Len(), len(all))
	}
	for i, want := range all {
		sameConstraint(t, got.All.At(i), want)
	}

	// The restored symbol table answers every lookup the compiled one does,
	// with identical IDs.
	for i, c := range got.All.Slice() {
		ord, ok := got.Syms.Ordinal(c)
		if !ok || ord != i {
			t.Fatalf("constraint %s: ordinal %d ok=%v, want %d", c.ID, ord, ok, i)
		}
		comp, ok := got.Syms.CompiledFor(c)
		if !ok {
			t.Fatalf("constraint %s not resolvable", c.ID)
		}
		if gk, wk := got.Syms.Pred(comp.Cons).Key(), c.Consequent.Key(); gk != wk {
			t.Fatalf("constraint %s consequent: %s != %s", c.ID, gk, wk)
		}
		for j, a := range c.Antecedents {
			wantID, ok1 := m.Syms.PredID(a)
			gotID, ok2 := got.Syms.PredID(a)
			if !ok1 || !ok2 || wantID != gotID || comp.Ants[j] != gotID {
				t.Fatalf("constraint %s antecedent %d: id %d/%d ok %v/%v", c.ID, j, gotID, wantID, ok2, ok1)
			}
		}
	}
	for _, cl := range sch.Classes() {
		wantID, _ := m.Syms.ClassID(cl)
		gotID, ok := got.Syms.ClassID(cl)
		if !ok || gotID != wantID {
			t.Fatalf("class %q: %d/%d ok=%v", cl, gotID, wantID, ok)
		}
		for _, a := range sch.EffectiveAttributes(cl) {
			wantAID, _ := m.Syms.AttrID(cl, a.Name)
			gotAID, ok := got.Syms.AttrID(cl, a.Name)
			if !ok || gotAID != wantAID {
				t.Fatalf("attr %s.%s: %d/%d ok=%v", cl, a.Name, gotAID, wantAID, ok)
			}
		}
	}
	if got.Syms.NumPreds() != m.Syms.NumPreds() || got.Syms.NumSigs() != m.Syms.NumSigs() {
		t.Fatalf("symbol counts differ: preds %d/%d sigs %d/%d",
			got.Syms.NumPreds(), m.Syms.NumPreds(), got.Syms.NumSigs(), m.Syms.NumSigs())
	}
	// Implication adjacency survives verbatim.
	for i := 0; i < m.Syms.NumPreds(); i++ {
		id := symtab.PredID(i)
		if !reflect.DeepEqual(nonNil(got.Syms.Implies(id)), nonNil(m.Syms.Implies(id))) ||
			!reflect.DeepEqual(nonNil(got.Syms.ImpliedBy(id)), nonNil(m.Syms.ImpliedBy(id))) {
			t.Fatalf("adjacency of pred %d differs", i)
		}
	}
	if gs, ws := got.Index.Stats(), m.Index.Stats(); gs != ws {
		t.Fatalf("index stats %+v, want %+v", gs, ws)
	}
}

func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// TestRoundTripDeterministic pins that two encodes of one model are
// byte-identical and share a snapshot id.
func TestRoundTripDeterministic(t *testing.T) {
	sch, all := testWorld(t)
	m := testModel(t, sch, all, nil)
	d1, id1, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	d2, id2, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 || !reflect.DeepEqual(d1, d2) {
		t.Fatal("two encodes of one model differ")
	}
}

// TestTombstonesRoundTrip round-trips a generation carrying a tombstone:
// the dead ordinal survives as a hole and live ordinals keep their slots.
func TestTombstonesRoundTrip(t *testing.T) {
	sch, all := testWorld(t)
	dead := make([]bool, len(all))
	dead[1] = true // tombstone c2
	m := testModel(t, sch, all, dead)
	data, _, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Dead, dead) {
		t.Fatalf("dead = %v, want %v", got.Dead, dead)
	}
	// A dead ordinal's constraint is still materialized (the ordinal space
	// keeps tombstones in place) but no longer resolvable by key.
	if got.All.At(1).ID != "c2" {
		t.Fatalf("tombstoned ordinal lost its constraint: %v", got.All.At(1))
	}
	if ord, ok := got.Syms.Ordinal(got.All.At(1)); ok {
		t.Fatalf("tombstoned constraint resolved to ordinal %d", ord)
	}
	if ord, ok := got.Syms.Ordinal(got.All.At(2)); !ok || ord != 2 {
		t.Fatalf("live constraint after tombstone: ord %d ok=%v", ord, ok)
	}
}

// TestDecodeRejectsCorruption flips bits across the whole file and
// asserts every corruption decodes to an error, never a partial model.
func TestDecodeRejectsCorruption(t *testing.T) {
	sch, all := testWorld(t)
	data, _, err := Encode(testModel(t, sch, all, nil))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] ^= 0xff
		if _, _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("version skew", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[8] = 99 // version, then re-seal the header checksum
		resealHeader(bad)
		if _, _, err := Decode(bad); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("header checksum", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[16] ^= 0xff // schemaHash byte without resealing
		if _, _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("section corruption", func(t *testing.T) {
		// Flip one byte in every 1KiB window of the payload area: each flip
		// must fail the decode with a checksum error, never panic or yield
		// a model.
		for off := 256; off < len(data); off += 1024 {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0x40
			m, _, err := Decode(bad)
			if err == nil || m != nil {
				t.Fatalf("offset %d: corrupt snapshot decoded", off)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 7, headerSize - 1, headerSize + 3, len(data) / 2, len(data) - 1} {
			if m, _, err := Decode(data[:n]); err == nil || m != nil {
				t.Fatalf("truncation to %d bytes decoded", n)
			}
		}
	})
}

// resealHeader recomputes the header checksum after a deliberate mutation,
// so tests reach the checks behind it.
func resealHeader(data []byte) {
	binary.LittleEndian.PutUint32(data[40:], crc32.Checksum(data[:40], castagnoli))
}
