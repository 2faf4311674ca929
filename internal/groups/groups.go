// Package groups implements the paper's constraint grouping scheme
// (Section 3): every semantic constraint is attached to exactly one of the
// object classes it references, forming per-class groups g_k. To optimize a
// query, only the groups attached to the query's classes are fetched, which
// prunes most irrelevant constraints before the (more expensive) relevance
// check runs.
//
// Three assignment policies are provided:
//
//   - Arbitrary      — the paper's base scheme: any referenced class works
//     (we use the first, which is deterministic).
//   - LeastAccessed  — the paper's enhancement: attach to the least
//     frequently accessed class, so groups hanging off rarely
//     queried classes are rarely fetched.
//   - EvenSpread     — the paper's alternative: balance group sizes.
//
// The paper proves the scheme correct ("all the relevant constraints will
// always be retrieved") because a relevant constraint references only query
// classes, hence its home class is a query class, hence its group is fetched.
// That argument holds for every policy here, and the property test in
// groups_test.go checks it.
package groups

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sqo/internal/constraint"
	"sqo/internal/query"
)

// Policy selects how constraints are assigned to class groups.
type Policy uint8

const (
	// Arbitrary attaches each constraint to its first referenced class.
	Arbitrary Policy = iota
	// LeastAccessed attaches each constraint to its least frequently
	// accessed referenced class (paper's enhancement). Requires access
	// statistics; ties break lexicographically for determinism.
	LeastAccessed
	// EvenSpread attaches each constraint to whichever referenced class
	// currently has the smallest group.
	EvenSpread
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Arbitrary:
		return "arbitrary"
	case LeastAccessed:
		return "least-accessed"
	case EvenSpread:
		return "even-spread"
	default:
		return fmt.Sprintf("policy(%d)", p)
	}
}

// AccessStats tracks how often each object class is accessed by queries.
// The paper maintains these statistics to drive the LeastAccessed policy
// (and notes the grouping must be refreshed when the pattern shifts).
// The zero value is ready to use, and all methods are safe for concurrent
// use.
type AccessStats struct {
	mu     sync.RWMutex
	counts map[string]int64
}

// NewAccessStats returns empty statistics.
func NewAccessStats() *AccessStats { return &AccessStats{counts: map[string]int64{}} }

// RecordQuery bumps the access count of every class the query touches.
func (s *AccessStats) RecordQuery(q *query.Query) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counts == nil {
		s.counts = map[string]int64{}
	}
	for _, c := range q.Classes {
		s.counts[c]++
	}
}

// Record bumps the access count of a single class by n.
func (s *AccessStats) Record(class string, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counts == nil {
		s.counts = map[string]int64{}
	}
	s.counts[class] += n
}

// Count returns the access count of a class.
func (s *AccessStats) Count(class string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.counts[class]
}

// Store holds the class-attached constraint groups. Build with NewStore;
// rebuild (Rebuild) when access statistics have drifted, as the paper
// prescribes for the LeastAccessed policy. A Store is safe for concurrent
// use: Retrieve may run from many goroutines, including concurrently with
// Rebuild.
type Store struct {
	mu     sync.RWMutex
	policy Policy
	stats  *AccessStats
	groups map[string][]*constraint.Constraint

	// Metrics accumulated across Retrieve calls, for the grouping
	// ablation experiment.
	retrieved atomic.Int64 // constraints fetched from groups
	relevant  atomic.Int64 // of those, actually relevant to the query
}

// NewStore distributes the catalog's constraints into groups under the given
// policy. stats may be nil except for LeastAccessed, where nil statistics
// degrade to Arbitrary.
func NewStore(cat *constraint.Catalog, policy Policy, stats *AccessStats) *Store {
	st := &Store{policy: policy, stats: stats, groups: map[string][]*constraint.Constraint{}}
	for _, c := range cat.All() {
		st.assign(c)
	}
	return st
}

// Policy returns the store's assignment policy.
func (st *Store) Policy() Policy { return st.policy }

// assign places one constraint into its home group.
func (st *Store) assign(c *constraint.Constraint) {
	classes := c.Classes()
	if len(classes) == 0 {
		return // unvalidated degenerate constraint; nothing to attach to
	}
	home := classes[0]
	switch st.policy {
	case LeastAccessed:
		if st.stats != nil {
			best := st.stats.Count(home)
			for _, cl := range classes[1:] {
				if n := st.stats.Count(cl); n < best {
					best, home = n, cl
				}
			}
		}
	case EvenSpread:
		best := len(st.groups[home])
		for _, cl := range classes[1:] {
			if n := len(st.groups[cl]); n < best {
				best, home = n, cl
			}
		}
	}
	st.groups[home] = append(st.groups[home], c)
}

// Rebuild redistributes all constraints, picking up fresh access statistics.
// Retrieval metrics are preserved.
func (st *Store) Rebuild() {
	st.mu.Lock()
	defer st.mu.Unlock()
	var all []*constraint.Constraint
	for _, g := range st.groups {
		all = append(all, g...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	st.groups = map[string][]*constraint.Constraint{}
	for _, c := range all {
		st.assign(c)
	}
}

// Group returns the constraints attached to the given class (not a copy —
// callers must not mutate).
func (st *Store) Group(class string) []*constraint.Constraint {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.groups[class]
}

// GroupSizes returns the size of every non-empty group, keyed by class.
func (st *Store) GroupSizes() map[string]int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make(map[string]int, len(st.groups))
	for cl, g := range st.groups {
		out[cl] = len(g)
	}
	return out
}

// Retrieve implements the paper's retrieval step: fetch the groups attached
// to the query's classes, then filter for relevance. It returns the relevant
// constraints in deterministic (ID) order and updates the store's metrics.
// Access statistics, when present, are updated as a side effect so the
// LeastAccessed policy can adapt.
func (st *Store) Retrieve(q *query.Query) []*constraint.Constraint {
	if st.stats != nil {
		st.stats.RecordQuery(q)
	}
	var fetched, kept int64
	var relevant []*constraint.Constraint
	st.mu.RLock()
	for _, cl := range q.Classes {
		for _, c := range st.groups[cl] {
			fetched++
			if c.RelevantTo(q) {
				kept++
				relevant = append(relevant, c)
			}
		}
	}
	st.mu.RUnlock()
	st.retrieved.Add(fetched)
	st.relevant.Add(kept)
	sort.Slice(relevant, func(i, j int) bool { return relevant[i].ID < relevant[j].ID })
	return relevant
}

// RetrievesOnlyRelevant marks the store as a prefiltered constraint source
// (core.PrefilteredSource): Retrieve filters every fetched group for
// relevance before returning.
func (st *Store) RetrievesOnlyRelevant() {}

// Retrieved returns the total number of constraints fetched from groups
// across all Retrieve calls so far.
func (st *Store) Retrieved() int64 { return st.retrieved.Load() }

// Relevant returns how many of the fetched constraints were actually
// relevant to their query, across all Retrieve calls so far.
func (st *Store) Relevant() int64 { return st.relevant.Load() }

// WasteRatio reports the fraction of retrieved constraints that were
// irrelevant, across all Retrieve calls so far. Lower is better; the paper's
// LeastAccessed enhancement exists to push this down.
func (st *Store) WasteRatio() float64 {
	// Load relevant before retrieved — the reverse of the writer's order —
	// so a concurrent Retrieve can never make relevant exceed retrieved
	// and push the ratio out of [0, 1].
	kept := st.relevant.Load()
	fetched := st.retrieved.Load()
	if fetched == 0 {
		return 0
	}
	return 1 - float64(kept)/float64(fetched)
}
