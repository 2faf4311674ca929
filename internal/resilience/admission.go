// Package resilience is the overload-protection layer of the serving stack:
// a bounded admission controller with deadline-aware load shedding, a
// graceful-degradation ladder driven by a pressure signal, and a
// fingerprint-keyed quarantine for poison queries. The pieces share one
// design rule, inherited from the engine's differential discipline: every
// degraded or shed outcome is provably safe — a request is either answered
// byte-identically to the unloaded system or refused with an honest error,
// never answered partially or wrongly.
package resilience

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// AdmissionConfig sizes an admission controller.
type AdmissionConfig struct {
	// MaxConcurrent is the number of requests allowed inside the engine at
	// once. <= 0 means 16.
	MaxConcurrent int
	// MaxQueue is how many admitted-but-waiting requests may queue behind
	// the concurrency limit before new arrivals are shed. <= 0 means
	// 4 × MaxConcurrent.
	MaxQueue int
}

// ShedError is the refusal an overloaded admission controller answers with.
// It maps to HTTP 429; RetryAfter is the controller's honest estimate of
// when a retry could be admitted.
type ShedError struct {
	// Reason is "queue_full" or "deadline" (the request's own deadline
	// would expire before a queue slot could reach the engine).
	Reason string
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("overloaded (%s): retry after %s", e.Reason, e.RetryAfter)
}

// Admission is a bounded admission queue: MaxConcurrent requests run, up to
// MaxQueue more wait, everyone else is shed immediately with a retry hint.
// A request whose context deadline would expire while it waited is shed
// up front instead of occupying a queue slot it can never use — under
// overload, work the client has already abandoned is the cheapest work to
// refuse.
type Admission struct {
	maxConcurrent int
	maxQueue      int
	sem           chan struct{}

	queued    atomic.Int64
	admitted  atomic.Int64
	shedQueue atomic.Int64
	shedDL    atomic.Int64
	// serviceEWMA is an exponentially-weighted moving average of observed
	// service times in microseconds (α = 1/8), seeding the wait estimate
	// behind deadline shedding and Retry-After.
	serviceEWMA atomic.Int64
}

// NewAdmission builds an admission controller. Zero config fields take the
// documented defaults.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 16
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	return &Admission{
		maxConcurrent: cfg.MaxConcurrent,
		maxQueue:      cfg.MaxQueue,
		sem:           make(chan struct{}, cfg.MaxConcurrent),
	}
}

// Acquire admits the request or sheds it. On admission it returns a release
// function the caller must invoke when the request finishes (it recycles the
// slot and feeds the service-time estimate). On shedding it returns a
// *ShedError; on context expiry while queued it returns ctx.Err().
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	// Fast path: a free slot admits without touching the queue counters.
	select {
	case a.sem <- struct{}{}:
		return a.releaseFunc(), nil
	default:
	}

	// Slot contention: take a queue position or shed.
	pos := a.queued.Add(1)
	if pos > int64(a.maxQueue) {
		a.queued.Add(-1)
		a.shedQueue.Add(1)
		return nil, &ShedError{Reason: "queue_full", RetryAfter: a.retryAfter()}
	}
	// Deadline-aware shedding: estimate how long this queue position waits
	// for a slot; a request that cannot survive the wait is refused now,
	// honestly, instead of timing out inside the queue.
	if dl, ok := ctx.Deadline(); ok {
		wait := a.estimatedWait(pos)
		if time.Until(dl) < wait {
			a.queued.Add(-1)
			a.shedDL.Add(1)
			return nil, &ShedError{Reason: "deadline", RetryAfter: a.retryAfter()}
		}
	}
	select {
	case a.sem <- struct{}{}:
		a.queued.Add(-1)
		return a.releaseFunc(), nil
	case <-ctx.Done():
		a.queued.Add(-1)
		return nil, ctx.Err()
	}
}

// releaseFunc counts the admission and returns the slot-recycling closure.
func (a *Admission) releaseFunc() func() {
	a.admitted.Add(1)
	start := time.Now()
	var once atomic.Bool
	return func() {
		if !once.CompareAndSwap(false, true) {
			return
		}
		a.observeService(time.Since(start))
		<-a.sem
	}
}

// observeService folds one observed service time into the EWMA.
func (a *Admission) observeService(d time.Duration) {
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	for {
		old := a.serviceEWMA.Load()
		var next int64
		if old == 0 {
			next = us
		} else {
			next = old - old/8 + us/8
			if next < 1 {
				next = 1
			}
		}
		if a.serviceEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// estimatedWait is the expected queue residence of position pos: the
// requests ahead of it drain at MaxConcurrent × (1/service) each tick.
func (a *Admission) estimatedWait(pos int64) time.Duration {
	svc := a.serviceEWMA.Load()
	if svc == 0 {
		svc = 1000 // no observations yet: assume 1ms service
	}
	rounds := (pos + int64(a.maxConcurrent) - 1) / int64(a.maxConcurrent)
	return time.Duration(rounds*svc) * time.Microsecond
}

// retryAfter estimates when a shed client could plausibly be admitted:
// the time for the whole current queue to drain. Clamped to [1s, 30s] —
// Retry-After is advisory pacing, not a precise reservation.
func (a *Admission) retryAfter() time.Duration {
	d := a.estimatedWait(a.queued.Load() + 1)
	if d < time.Second {
		return time.Second
	}
	if d > 30*time.Second {
		return 30 * time.Second
	}
	return d.Round(time.Second)
}

// AdmissionStats is a point-in-time view of the controller.
type AdmissionStats struct {
	// MaxConcurrent and MaxQueue echo the configuration.
	MaxConcurrent int `json:"max_concurrent"`
	MaxQueue      int `json:"max_queue"`
	// InFlight is how many admitted requests currently hold a slot;
	// Queued how many are waiting behind them.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// Admitted counts requests that got a slot; ShedQueueFull and
	// ShedDeadline count the two refusal reasons.
	Admitted      int64 `json:"admitted"`
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedDeadline  int64 `json:"shed_deadline"`
	// ServiceEWMAUS is the current service-time estimate feeding the
	// wait predictions.
	ServiceEWMAUS int64 `json:"service_ewma_us"`
}

// Stats snapshots the controller. Safe under concurrent traffic.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		MaxConcurrent: a.maxConcurrent,
		MaxQueue:      a.maxQueue,
		InFlight:      len(a.sem),
		Queued:        int(a.queued.Load()),
		Admitted:      a.admitted.Load(),
		ShedQueueFull: a.shedQueue.Load(),
		ShedDeadline:  a.shedDL.Load(),
		ServiceEWMAUS: a.serviceEWMA.Load(),
	}
}

// QueueFraction is the pressure contribution of the queue: 0 when empty,
// 1 when full. The degradation ladder consumes it.
func (a *Admission) QueueFraction() float64 {
	return float64(a.queued.Load()) / float64(a.maxQueue)
}
