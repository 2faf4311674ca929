package predicate

// Pool interns predicates by canonical key, assigning each distinct predicate
// a small integer ID. This is the paper's storage optimization for
// materialized closures: "extracting all the predicates into a separate
// structure, and modifying the constraints to contain only pointers to
// relevant predicates in the structure". closure.Materialize returns one
// alongside the closed catalog. A catalog generation's own predicate space
// (the PredIDs the transformation table's columns refer to) lives in
// symtab.Table, which resolves it the way it resolves every other symbol.
//
// The zero Pool is ready to use. Pool is not safe for concurrent mutation.
type Pool struct {
	byKey map[string]int
	preds []Predicate
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{byKey: map[string]int{}} }

// Intern returns the ID for p, allocating one if the predicate is new.
func (pl *Pool) Intern(p Predicate) int {
	if pl.byKey == nil {
		pl.byKey = map[string]int{}
	}
	if id, ok := pl.byKey[p.Key()]; ok {
		return id
	}
	id := len(pl.preds)
	pl.byKey[p.Key()] = id
	pl.preds = append(pl.preds, p)
	return id
}

// Lookup returns the ID for p without interning. The second result reports
// whether the predicate was present.
func (pl *Pool) Lookup(p Predicate) (int, bool) {
	id, ok := pl.byKey[p.Key()]
	return id, ok
}

// At returns the predicate with the given ID. It panics on out-of-range IDs,
// which always indicate a programming error.
func (pl *Pool) At(id int) Predicate { return pl.preds[id] }

// Len returns the number of distinct interned predicates.
func (pl *Pool) Len() int { return len(pl.preds) }

// All returns the interned predicates indexed by ID. The slice is fresh.
func (pl *Pool) All() []Predicate {
	return append([]Predicate(nil), pl.preds...)
}
