package constraint

import (
	"slices"
	"testing"

	"sqo/internal/predicate"
)

// sameFields reports whether a and b agree in every field a catalog swap
// compares: ID, Doc, StateDependent, links and antecedents in order, and
// the consequent.
func sameFields(a, b *Constraint) bool {
	return a.ID == b.ID && a.Doc == b.Doc && a.StateDependent == b.StateDependent &&
		slices.Equal(a.Links, b.Links) && a.Consequent.Equal(b.Consequent) &&
		slices.EqualFunc(a.Antecedents, b.Antecedents, predicate.Predicate.Equal)
}

// FuzzParse: the constraint parser must never panic, and accepted inputs
// must survive a render/re-parse round trip with every field intact.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`c1: vehicle.desc = "refrigerated truck" [collects] -> cargo.desc = "frozen food"`,
		`c3: true [drives] -> driver.licenseClass >= vehicle.class`,
		`k: a.x = 1 ∧ b.y <= 2 -> c.z != 3`,
		`k: a.x = "∧ -> [tricky]" -> c.z = 1`,
		`k: a.x = true & b.y = false -> c.z = -9`,
		"nonsense",
		"k: ->",
		"k: a.b = [unclosed -> c.d = 1",
		// Notes after the consequent; the doc holds every separator the
		// parser splits on.
		`k: a.x = 1 -> c.z = 2 doc "a -> b"`,
		`k: a.x = 1 [r] -> c.z = 2 doc "time: 10:30"`,
		`k: a.x = 1 -> c.z = 2 doc "# not a comment"`,
		`k: a.x = 1 -> c.z = 2 doc "say \"hi\" \\ bye"`,
		`k: a.x = 1 ∧ b.y = 2 -> c.z = 3 state-dependent doc "x ∧ y & [z]"`,
		`k: true -> c.z = "v" state-dependent doc ""`,
		`k: true -> c.z = "v" doc "" state-dependent`,
		`k: a.x = 1 -> c.z = 2 doc "a" doc "b"`,
		`k: a.x = 1 -> c.z = 2 doc unquoted`,
		// References that read as a number, or open a string, once
		// rendered on the other side.
		"0:->0.0 = !.0",
		"0:->A.0 = !0.\"",
		"0:->A.0 = -.0", // negative zero renders as -0, which reads as Int(0)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		c, err := Parse(input)
		if err != nil {
			return
		}
		back, err := Parse(c.String())
		if err != nil {
			t.Fatalf("accepted %q but rendered form fails: %v\nrendered: %s", input, err, c)
		}
		if back.Key() != c.Key() || !sameFields(back, c) {
			t.Fatalf("round trip changed a field:\n in: %s\nout: %s", c, back)
		}
	})
}

// FuzzParseCatalog: multi-line catalogs never panic either.
func FuzzParseCatalog(f *testing.F) {
	f.Add("# comment\nc1: a.x = 1 -> b.y = 2\n\nc2: b.y = 2 -> a.x = 1\n")
	f.Add("c1: a.x = 1 -> b.y = 2\nc1: a.x = 2 -> b.y = 3\n") // duplicate ID
	f.Fuzz(func(t *testing.T, input string) {
		_, _ = ParseCatalog(input)
	})
}
