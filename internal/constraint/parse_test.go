package constraint

import (
	"strings"
	"testing"

	"sqo/internal/predicate"
	"sqo/internal/value"
)

func TestParseSimple(t *testing.T) {
	c, err := Parse(`c1: vehicle.desc = "refrigerated truck" [collects] -> cargo.desc = "frozen food"`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := New("c1",
		[]predicate.Predicate{predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))},
		[]string{"collects"},
		predicate.Eq("cargo", "desc", value.String("frozen food")))
	if c.Key() != want.Key() {
		t.Errorf("parsed %s, want %s", c, want)
	}
	if c.ID != "c1" {
		t.Errorf("ID = %q", c.ID)
	}
}

func TestParseEmptyAntecedentAndJoinConsequent(t *testing.T) {
	c, err := Parse(`c3: true [drives] -> driver.licenseClass >= vehicle.class`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(c.Antecedents) != 0 {
		t.Errorf("antecedents = %v, want none", c.Antecedents)
	}
	if !c.Consequent.IsJoin() {
		t.Errorf("consequent should be a join: %s", c.Consequent)
	}
	if len(c.Links) != 1 || c.Links[0] != "drives" {
		t.Errorf("links = %v", c.Links)
	}
}

func TestParseConjunction(t *testing.T) {
	for _, sep := range []string{"∧", "&"} {
		in := `k: cargo.desc = "frozen food" ` + sep + ` cargo.priority >= 2 -> cargo.quantity <= 500`
		c, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if len(c.Antecedents) != 2 {
			t.Errorf("%q: antecedents = %v", sep, c.Antecedents)
		}
		if c.Consequent.Op != predicate.LE {
			t.Errorf("consequent = %s", c.Consequent)
		}
	}
}

func TestParseQuotedSeparatorsAndBrackets(t *testing.T) {
	// The ∧, & and [ characters inside string literals must not confuse
	// the parser.
	c, err := Parse(`k: emp.team = "R∧D & [ops]" -> emp.grade >= 3`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(c.Antecedents) != 1 {
		t.Fatalf("antecedents = %v", c.Antecedents)
	}
	if got := c.Antecedents[0].Const.Str(); got != "R∧D & [ops]" {
		t.Errorf("string constant = %q", got)
	}
	if len(c.Links) != 0 {
		t.Errorf("links = %v, want none", c.Links)
	}
}

func TestParseNumericAndBoolLiterals(t *testing.T) {
	c, err := Parse(`k: box.heavy = true ∧ box.weight > 10 -> box.priority >= 2`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c.Antecedents[0].Const != value.Bool(true) {
		t.Errorf("bool literal parsed as %v", c.Antecedents[0].Const)
	}
	if c.Antecedents[1].Const != value.Int(10) {
		t.Errorf("int literal parsed as %v", c.Antecedents[1].Const)
	}
}

// TestParseRoundTripPaperCatalog: every constraint of the logistics catalog
// survives String -> Parse with every field intact, Doc and StateDependent
// included. (The catalog lives in datagen, which imports this package;
// rebuild the paper constraints here.)
func TestParseRoundTripPaperConstraints(t *testing.T) {
	derived := func() *Constraint {
		c := New("s1", []predicate.Predicate{predicate.Eq("cargo", "desc", value.String("oil"))},
			nil, predicate.Sel("cargo", "priority", predicate.GE, value.Int(3)))
		c.StateDependent = true
		return c
	}
	cs := []*Constraint{
		New("c1",
			[]predicate.Predicate{predicate.Eq("vehicle", "desc", value.String("refrigerated truck"))},
			[]string{"collects"},
			predicate.Eq("cargo", "desc", value.String("frozen food"))).
			WithDoc("refrigerated trucks can only be used to carry frozen food"),
		New("c3", nil, []string{"drives"},
			predicate.Join("driver", "licenseClass", predicate.GE, "vehicle", "class")).
			WithDoc(`a driver's "class" -> at most his license: see §2.2 ∧ #3`),
		New("c4", []predicate.Predicate{predicate.Eq("driver", "rank", value.String("supervisor"))},
			nil, predicate.Eq("driver", "clearance", value.String("top secret"))),
		New("c6",
			[]predicate.Predicate{
				predicate.Eq("cargo", "desc", value.String("frozen food")),
				predicate.Sel("cargo", "priority", predicate.GE, value.Int(2)),
			},
			nil, predicate.Sel("cargo", "quantity", predicate.LE, value.Int(500))),
		derived(),
		derived().WithDoc("state: oil ships first\nsecond line"),
	}
	for _, c := range cs {
		back, err := Parse(c.String())
		if err != nil {
			t.Fatalf("round trip of %s: %v", c, err)
		}
		if back.Key() != c.Key() || !sameFields(back, c) {
			t.Errorf("round trip changed a field:\n in: %s\nout: %s", c, back)
		}
	}
}

func TestParseCatalog(t *testing.T) {
	text := `
# the paper's first two constraints
c1: vehicle.desc = "refrigerated truck" [collects] -> cargo.desc = "frozen food"

c2: cargo.desc = "frozen food" [supplies] -> supplier.name = "SFI"
`
	cat, err := ParseCatalog(text)
	if err != nil {
		t.Fatalf("ParseCatalog: %v", err)
	}
	if cat.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cat.Len())
	}
	if cat.Get("c1") == nil || cat.Get("c2") == nil {
		t.Error("constraints missing by ID")
	}
}

func TestParseCatalogErrorsCarryLineNumbers(t *testing.T) {
	_, err := ParseCatalog("c1: broken")
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error should name the line: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"no colon here",
		"my id: a.b = 1 -> c.d = 2",         // space in id
		"k: a.b = 1",                        // no arrow
		"k: a.b = 1 ->",                     // empty consequent
		"k: a.b = 1 [r -> c.d = 2",          // unterminated links
		"k: a.b ~ 1 -> c.d = 2",             // bad operator
		"k: a.b.c = 1 -> c.d = 2",           // doubly dotted
		"k: a.b = -> c.d = 2",               // missing rhs
		`k: a.b = "unterminated -> c.d = 2`, // dangling string
		"k: a.b = 1 extra -> c.d = 2",       // too many tokens
		"k: a.b = 1 -> c.d = 2 extra",       // unknown note
		"k: a.b = 1 -> c.d = 2 doc",         // doc without text
		"k: a.b = 1 -> c.d = 2 doc unquoted",
		`k: a.b = 1 -> c.d = 2 doc "a" doc "b"`,
		"k: a.b = 1 -> c.d = 2 state-dependent state-dependent",
		`k: a.b = 1 -> c.d = 2 doc "a" state-dependent`, // notes out of order
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}
