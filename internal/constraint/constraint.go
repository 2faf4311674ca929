// Package constraint implements the Horn-clause semantic constraints of the
// paper (Figure 2.2) and their classification.
//
// A constraint has the shape
//
//	antecedent₁ ∧ … ∧ antecedentₖ ∧ structural-links → consequent
//
// where antecedents and the consequent are predicates (selective or join) and
// the structural links name the relationships through which the referenced
// object classes must be connected (e.g. c1 relates cargo and vehicle *via
// collects*). The paper folds the structural part into its class-based
// relevance test, which is adequate for its path-query workload; we keep the
// links explicit so the firing condition stays sound for arbitrary queries
// (DESIGN.md deviation #2).
//
// Constraints are classified intra-class (all predicates on one object class)
// or inter-class (spanning several). The core algorithm's Tables 3.1/3.2 key
// their tag transitions on this classification, which is computed at
// construction time — the paper's "precompilation" tagging.
package constraint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sqo/internal/frozen"
	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/schema"
)

// Kind is the paper's intra-/inter-class constraint classification.
type Kind uint8

const (
	// Intra marks constraints whose predicates all reference a single
	// object class (e.g. c4: manager rank).
	Intra Kind = iota
	// Inter marks constraints relating attributes across object classes.
	Inter
)

// String returns "intra" or "inter".
func (k Kind) String() string {
	if k == Intra {
		return "intra"
	}
	return "inter"
}

// Constraint is one Horn-clause semantic constraint. Build with New and
// treat as immutable afterwards; the catalog and optimizer share instances
// freely.
type Constraint struct {
	// ID names the constraint, e.g. "c1". Derived constraints produced by
	// closure materialization get synthesized IDs ("c1*c2").
	ID string
	// Doc is an optional human-readable statement, e.g. "refrigerated
	// trucks can only be used to carry frozen food".
	Doc string
	// Antecedents are the body predicates; all must hold for the
	// consequent to be implied. May be empty (unconditional constraints
	// such as c4 restricted to the query's classes).
	Antecedents []predicate.Predicate
	// Links are the relationships through which the constraint's classes
	// must be connected for the rule to apply.
	Links []string
	// Consequent is the implied predicate.
	Consequent predicate.Predicate
	// StateDependent marks rules derived from the current database state
	// (the Siegel [Sie88] extension): they preserve query equivalence only
	// in that state and must be discarded when the data changes. Declared
	// integrity constraints leave this false.
	StateDependent bool

	kind    Kind
	classes []string
	key     string
	keyHash uint64 // frozen.HashString(key), for symbol-table ordinal probes
}

// New builds a constraint, computing its classification and canonical key.
func New(id string, antecedents []predicate.Predicate, links []string, consequent predicate.Predicate) *Constraint {
	c := &Constraint{
		ID:          id,
		Antecedents: append([]predicate.Predicate(nil), antecedents...),
		Links:       append([]string(nil), links...),
		Consequent:  consequent,
	}
	c.finish()
	return c
}

// Restore rebuilds a constraint from persisted fields, trusting the stored
// classification and canonical key instead of recomputing them — the
// snapshot layer checksums the fields, so finish()'s sorting and string
// building would be pure waste on the warm-boot path. Unlike New, the
// predicate and string slices are aliased, not copied; the caller owns them
// and must treat them as frozen afterwards.
func Restore(id, doc string, antecedents []predicate.Predicate, links []string,
	consequent predicate.Predicate, stateDependent bool, kind Kind, classes []string, key string) *Constraint {
	return &Constraint{
		ID:             id,
		Doc:            doc,
		Antecedents:    antecedents,
		Links:          links,
		Consequent:     consequent,
		StateDependent: stateDependent,
		kind:           kind,
		classes:        classes,
		key:            key,
		keyHash:        frozen.HashString(key),
	}
}

// WithDoc attaches a human-readable statement and returns the constraint.
func (c *Constraint) WithDoc(doc string) *Constraint {
	c.Doc = doc
	return c
}

// finish computes the derived fields. Kept separate so tests can rebuild
// after mutation.
func (c *Constraint) finish() {
	set := map[string]bool{}
	for _, p := range c.Antecedents {
		for _, cl := range p.Classes() {
			set[cl] = true
		}
	}
	for _, cl := range c.Consequent.Classes() {
		set[cl] = true
	}
	c.classes = make([]string, 0, len(set))
	for cl := range set {
		c.classes = append(c.classes, cl)
	}
	sort.Strings(c.classes)
	if len(c.classes) <= 1 {
		c.kind = Intra
	} else {
		c.kind = Inter
	}

	keys := make([]string, 0, len(c.Antecedents)+len(c.Links)+1)
	for _, p := range c.Antecedents {
		keys = append(keys, p.Key())
	}
	sort.Strings(keys)
	links := append([]string(nil), c.Links...)
	sort.Strings(links)
	c.key = strings.Join(keys, "&") + "|" + strings.Join(links, "&") + "=>" + c.Consequent.Key()
	c.keyHash = frozen.HashString(c.key)
}

// Kind returns the intra/inter classification (the paper's tc(c) tag).
func (c *Constraint) Kind() Kind { return c.kind }

// Classes returns the sorted distinct object classes the constraint
// references.
func (c *Constraint) Classes() []string {
	return append([]string(nil), c.classes...)
}

// NumClasses and ClassAt read the list Classes copies, without copying it.
func (c *Constraint) NumClasses() int { return len(c.classes) }

// ClassAt returns the i-th class of Classes.
func (c *Constraint) ClassAt(i int) string { return c.classes[i] }

// Key is a canonical identity: two constraints with the same antecedent set,
// link set and consequent share a key. The closure module dedupes with it.
func (c *Constraint) Key() string { return c.key }

// KeyHash is the frozen-table hash of Key, computed once where the key is
// set, so resolving a constraint's ordinal hashes nothing per query.
func (c *Constraint) KeyHash() uint64 { return c.keyHash }

// RelevantTo reports whether the constraint applies to the query: every class
// it references appears in the query (the paper's definition), and every
// structural link it requires is among the query's relationships.
func (c *Constraint) RelevantTo(q *query.Query) bool {
	for _, cl := range c.classes {
		if !q.HasClass(cl) {
			return false
		}
	}
	for _, l := range c.Links {
		if !q.HasRelationship(l) {
			return false
		}
	}
	return true
}

// Validate checks the constraint against a schema: all predicates must
// type-check, links must exist and connect referenced classes, and the
// constraint must actually be a Horn clause over at least one class.
func (c *Constraint) Validate(s *schema.Schema) error {
	if c.ID == "" {
		return fmt.Errorf("constraint with empty id")
	}
	for _, p := range append(append([]predicate.Predicate(nil), c.Antecedents...), c.Consequent) {
		if err := p.Validate(s); err != nil {
			return fmt.Errorf("constraint %s: %w", c.ID, err)
		}
	}
	for _, l := range c.Links {
		r := s.Relationship(l)
		if r == nil {
			return fmt.Errorf("constraint %s: unknown relationship %q", c.ID, l)
		}
	}
	// The classes referenced must be connected through the declared links
	// when the constraint is inter-class; otherwise the rule relates
	// unlinked classes, which is almost certainly a specification error.
	if c.kind == Inter && !s.Connected(c.classes, c.Links) {
		return fmt.Errorf("constraint %s: classes %v not connected by links %v", c.ID, c.classes, c.Links)
	}
	return nil
}

// String renders the constraint in the paper's arrow notation, followed by
// its notes: "state-dependent" when StateDependent is set, and the Doc as a
// quoted literal after "doc". Parse reads every field back.
//
//	c1: vehicle.desc = "refrigerated truck" [collects] -> cargo.desc = "frozen food"
//	c2: cargo.desc = "frozen food" [supplies] -> supplier.name = "SFI" doc "we get frozen food only from SFI"
func (c *Constraint) String() string {
	var sb strings.Builder
	sb.WriteString(c.ID)
	sb.WriteString(": ")
	if len(c.Antecedents) == 0 {
		sb.WriteString("true")
	} else {
		parts := make([]string, len(c.Antecedents))
		for i, p := range c.Antecedents {
			parts[i] = p.String()
		}
		sb.WriteString(strings.Join(parts, " ∧ "))
	}
	if len(c.Links) > 0 {
		sb.WriteString(" [")
		sb.WriteString(strings.Join(c.Links, ", "))
		sb.WriteString("]")
	}
	sb.WriteString(" -> ")
	sb.WriteString(c.Consequent.String())
	if c.StateDependent {
		sb.WriteString(" state-dependent")
	}
	if c.Doc != "" {
		sb.WriteString(" doc ")
		sb.WriteString(strconv.Quote(c.Doc))
	}
	return sb.String()
}

// Catalog is an ordered, deduplicated collection of constraints, usually the
// whole database's integrity constraint set.
type Catalog struct {
	constraints []*Constraint
	byID        map[string]*Constraint
	byKey       map[string]*Constraint
}

// NewCatalog builds a catalog from the given constraints. Duplicate IDs are
// an error; logically duplicate constraints (same Key) are silently merged.
func NewCatalog(cs ...*Constraint) (*Catalog, error) {
	cat := &Catalog{byID: map[string]*Constraint{}, byKey: map[string]*Constraint{}}
	for _, c := range cs {
		if err := cat.Add(c); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// MustCatalog is NewCatalog for statically known constraint sets.
func MustCatalog(cs ...*Constraint) *Catalog {
	cat, err := NewCatalog(cs...)
	if err != nil {
		panic(err)
	}
	return cat
}

// Add inserts a constraint. Adding a logical duplicate is a no-op; adding a
// different constraint under an existing ID is an error.
func (cat *Catalog) Add(c *Constraint) error {
	if dup, ok := cat.byKey[c.Key()]; ok {
		if dup.ID != c.ID && cat.byID[c.ID] == nil {
			cat.byID[c.ID] = dup // alias
		}
		return nil
	}
	if _, ok := cat.byID[c.ID]; ok {
		return fmt.Errorf("constraint: duplicate id %q", c.ID)
	}
	cat.byID[c.ID] = c
	cat.byKey[c.Key()] = c
	cat.constraints = append(cat.constraints, c)
	return nil
}

// Get returns the constraint with the given ID, or nil.
func (cat *Catalog) Get(id string) *Constraint { return cat.byID[id] }

// All returns the constraints in insertion order. The slice is fresh; the
// constraints are shared.
func (cat *Catalog) All() []*Constraint {
	return append([]*Constraint(nil), cat.constraints...)
}

// Len returns the number of (logically distinct) constraints.
func (cat *Catalog) Len() int { return len(cat.constraints) }

// RelevantTo filters the catalog down to the constraints relevant to q.
func (cat *Catalog) RelevantTo(q *query.Query) []*Constraint {
	var out []*Constraint
	for _, c := range cat.constraints {
		if c.RelevantTo(q) {
			out = append(out, c)
		}
	}
	return out
}

// Validate validates every constraint in the catalog.
func (cat *Catalog) Validate(s *schema.Schema) error {
	for _, c := range cat.constraints {
		if err := c.Validate(s); err != nil {
			return err
		}
	}
	return nil
}
