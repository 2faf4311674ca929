package sqo

// degrade.go: the engine half of graceful degradation and panic
// containment. A serving layer under pressure calls SetDegradation to shed
// serving-path work in provably-safe order (see resilience.Level*); the
// optimizer and executor entry points convert panics into errors and feed a
// fingerprint-keyed quarantine so a reproducible crash input short-circuits
// instead of re-entering the optimizer.

import (
	"context"
	"fmt"

	"sqo/internal/resilience"
)

// SetDegradation sets the engine's serving degradation level (clamped to
// [resilience.LevelFull, resilience.MaxLevel]). Levels shed serving-path
// optimizations only — subsumption probing at LevelNoSubsume and above,
// canonical cache keying at LevelNoCanon and above — never semantic
// transformations, so every level answers byte-identically to LevelFull;
// what changes is how much work a response costs.
func (e *Engine) SetDegradation(level int) {
	if level < resilience.LevelFull {
		level = resilience.LevelFull
	}
	if level > resilience.MaxLevel {
		level = resilience.MaxLevel
	}
	e.degrade.Store(int32(level))
}

// DegradationLevel returns the level currently in force.
func (e *Engine) DegradationLevel() int { return int(e.degrade.Load()) }

// QuarantinedError is the refusal served for a quarantined query: its
// fingerprint panicked the optimizer repeatedly, so it is rejected before
// any transformation work. The query is at fault, not the system — the
// serving layer maps this to a client error, not an overload signal.
type QuarantinedError struct {
	Fingerprint QueryFingerprint
}

func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("sqo: query %s is quarantined after repeated optimizer panics", e.Fingerprint)
}

// QuarantineEntries lists the quarantine register (inspection endpoint).
func (e *Engine) QuarantineEntries() []resilience.QuarantineEntry { return e.quar.Entries() }

// QuarantineReset clears the quarantine register, returning how many
// fingerprints were dropped — the operator lever for "the offending input
// or build is gone".
func (e *Engine) QuarantineReset() int { return e.quar.Reset() }

// quarKey is the quarantine identity of one optimization: the cache key
// when caching computed one anyway, the query's fingerprint otherwise.
// Both hash content only, so a quarantined query stays quarantined across
// catalog generations.
func (e *Engine) quarKey(key QueryFingerprint, q *Query) resilience.Key {
	if e.cache == nil {
		key = Fingerprint(q)
	}
	return resilience.Key{key.Hi, key.Lo}
}

// optimizeGuarded runs the cold optimization with panic containment: a
// panic anywhere under OptimizeContext is recovered, counted, registered as
// a quarantine strike against the query's fingerprint, and converted into
// an error — the request fails cleanly while the engine keeps serving.
func (e *Engine) optimizeGuarded(ctx context.Context, st *engineState, q *Query, qk resilience.Key) (res *Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			e.panicsRecovered.Add(1)
			msg := fmt.Sprintf("%v", rec)
			n := e.quar.Strike(qk, msg)
			res, err = nil, fmt.Errorf("sqo: optimizer panic (recovered, strike %d): %s", n, msg)
		}
	}()
	if e.faults.ShouldPanic("optimize.panic", qk[0]^qk[1]) {
		panic("faultinject: optimize.panic")
	}
	return st.opt.OptimizeContext(ctx, q)
}

// executeGuarded runs fn (an execution-runner call) with the same panic
// containment as optimizeGuarded, striking the same fingerprint space. The
// fingerprint is computed only when it is needed (a panic, or live
// injection), keeping the healthy path free of hashing.
func (e *Engine) executeGuarded(q *Query, fn func() (*Execution, error)) (out *Execution, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			e.panicsRecovered.Add(1)
			fp := Fingerprint(q)
			msg := fmt.Sprintf("%v", rec)
			n := e.quar.Strike(resilience.Key{fp.Hi, fp.Lo}, msg)
			out, err = nil, fmt.Errorf("sqo: executor panic (recovered, strike %d): %s", n, msg)
		}
	}()
	if e.faults != nil {
		fp := Fingerprint(q)
		if e.faults.ShouldPanic("execute.panic", fp.Hi^fp.Lo) {
			panic("faultinject: execute.panic")
		}
	}
	return fn()
}
