package resilience

import (
	"sync"
	"sync/atomic"
)

// Degradation levels, in shedding order. Each step drops one optimization
// of the serving path whose absence is provably invisible in responses
// (the differential suite holds every level byte-identical to level 0);
// what degrades is cost, never correctness.
const (
	// LevelFull serves everything: subsumption probing and canonical cache
	// keys.
	LevelFull = 0
	// LevelNoSubsume disables containment probing on cache misses — the
	// most speculative work on the path (up to maxGenProbe containment
	// proofs per miss) and the first to go.
	LevelNoSubsume = 1
	// LevelNoCanon additionally keys the cache by the raw fingerprint,
	// skipping canonicalization. Near-duplicates stop collapsing; each
	// variant pays its own cold optimization, which is still the exact
	// cold answer.
	LevelNoCanon = 2
)

// MaxLevel is the deepest degradation step.
const MaxLevel = LevelNoCanon

// LadderConfig tunes the escalation hysteresis.
type LadderConfig struct {
	// StepUp is the pressure at or above which an observation counts
	// toward escalating (default 0.75); StepDown the pressure at or below
	// which one counts toward recovering (default 0.25). Between the two
	// the ladder holds its level.
	StepUp   float64
	StepDown float64
	// UpAfter is how many consecutive high-pressure observations escalate
	// one level (default 2); DownAfter how many consecutive low-pressure
	// observations recover one (default 8). Escalation is deliberately
	// faster than recovery, so a borderline system does not flap.
	UpAfter   int
	DownAfter int
}

func (c *LadderConfig) defaults() {
	if c.StepUp <= 0 {
		c.StepUp = 0.75
	}
	if c.StepDown <= 0 {
		c.StepDown = 0.25
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 2
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 8
	}
}

// Ladder converts a periodic pressure signal — admission queue depth plus
// the p99 latency trend — into a degradation level 0..MaxLevel, with
// hysteresis so a single spike cannot whipsaw the serving configuration.
// Level reads are a single atomic load, fit for the per-request path;
// Observe is called by a monitor loop, typically a few times per second.
type Ladder struct {
	cfg   LadderConfig
	level atomic.Int32

	mu       sync.Mutex
	hiStreak int
	loStreak int
	// p99Base is the EWMA of the p99 observed while the system is calm —
	// the baseline the trend signal compares against.
	p99Base float64

	escalations   atomic.Int64
	deescalations atomic.Int64
}

// NewLadder builds a ladder at LevelFull.
func NewLadder(cfg LadderConfig) *Ladder {
	cfg.defaults()
	return &Ladder{cfg: cfg}
}

// Level returns the current degradation level: one atomic load.
func (l *Ladder) Level() int { return int(l.level.Load()) }

// SetLevel pins the level directly (operator override, tests). Clamped to
// [0, MaxLevel]. Streak state resets so Observe restarts its evidence from
// the pinned level.
func (l *Ladder) SetLevel(level int) {
	if level < 0 {
		level = 0
	}
	if level > MaxLevel {
		level = MaxLevel
	}
	l.mu.Lock()
	l.hiStreak, l.loStreak = 0, 0
	l.level.Store(int32(level))
	l.mu.Unlock()
}

// Observe feeds one pressure sample: queueFrac is the admission queue's
// fill fraction (0..1), p99US the request p99 over the observation window
// (0 when the window saw no traffic). It returns the level now in force.
//
// Pressure is the worse of the two signals: the queue fraction directly,
// and the p99 trend scaled so a p99 of 9× the calm baseline saturates at
// 1.0. The baseline learns only from calm windows — it must not chase the
// very overload it exists to detect.
func (l *Ladder) Observe(queueFrac float64, p99US int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()

	pressure := queueFrac
	if p99US > 0 {
		if l.p99Base > 0 {
			if trend := (float64(p99US) - l.p99Base) / (8 * l.p99Base); trend > pressure {
				pressure = trend
			}
		}
		if queueFrac <= l.cfg.StepDown && l.level.Load() == LevelFull {
			if l.p99Base == 0 {
				l.p99Base = float64(p99US)
			} else {
				l.p99Base += (float64(p99US) - l.p99Base) / 8
			}
		}
	}

	switch {
	case pressure >= l.cfg.StepUp:
		l.loStreak = 0
		l.hiStreak++
		if l.hiStreak >= l.cfg.UpAfter && l.level.Load() < MaxLevel {
			l.level.Add(1)
			l.escalations.Add(1)
			l.hiStreak = 0
		}
	case pressure <= l.cfg.StepDown:
		l.hiStreak = 0
		l.loStreak++
		if l.loStreak >= l.cfg.DownAfter && l.level.Load() > LevelFull {
			l.level.Add(-1)
			l.deescalations.Add(1)
			l.loStreak = 0
		}
	default:
		l.hiStreak, l.loStreak = 0, 0
	}
	return int(l.level.Load())
}

// LadderStats is a point-in-time view of the ladder.
type LadderStats struct {
	// Level is the degradation level in force.
	Level int `json:"level"`
	// Escalations and Deescalations count level changes since start.
	Escalations   int64 `json:"escalations"`
	Deescalations int64 `json:"deescalations"`
	// P99BaselineUS is the calm-traffic p99 the trend compares against.
	P99BaselineUS int64 `json:"p99_baseline_us"`
}

// LevelName renders a degradation level for logs and /readyz.
func LevelName(level int) string {
	switch level {
	case LevelFull:
		return "full"
	case LevelNoSubsume:
		return "no-subsume"
	case LevelNoCanon:
		return "no-canon"
	default:
		return "unknown"
	}
}

// Stats snapshots the ladder.
func (l *Ladder) Stats() LadderStats {
	l.mu.Lock()
	base := l.p99Base
	l.mu.Unlock()
	return LadderStats{
		Level:         l.Level(),
		Escalations:   l.escalations.Load(),
		Deescalations: l.deescalations.Load(),
		P99BaselineUS: int64(base),
	}
}
