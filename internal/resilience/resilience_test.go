package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdmissionFastPath(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 2, MaxQueue: 2})
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.InFlight != 1 || st.Admitted != 1 || st.ShedQueueFull+st.ShedDeadline != 0 {
		t.Fatalf("after one acquire: %+v", st)
	}
	release()
	release() // idempotent
	if st := a.Stats(); st.InFlight != 0 {
		t.Fatalf("after release: %+v", st)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})
	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()

	// Occupy the single queue slot with a blocked waiter.
	waiterIn := make(chan struct{})
	waiterOut := make(chan error, 1)
	go func() {
		close(waiterIn)
		rel, err := a.Acquire(context.Background())
		if rel != nil {
			defer rel()
		}
		waiterOut <- err
	}()
	<-waiterIn
	// Wait until the waiter is actually counted as queued.
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The next arrival must be shed with a retry hint.
	_, err = a.Acquire(context.Background())
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("expected ShedError, got %v", err)
	}
	if shed.Reason != "queue_full" {
		t.Fatalf("reason = %q", shed.Reason)
	}
	if shed.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", shed.RetryAfter)
	}
	if got := a.Stats().ShedQueueFull; got != 1 {
		t.Fatalf("ShedQueueFull = %d", got)
	}

	hold() // release the slot; the queued waiter gets in
	if err := <-waiterOut; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

func TestAdmissionDeadlineShed(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 8})
	// Teach the EWMA that service takes ~100ms, so the wait estimate for a
	// queued request dwarfs a 1ms deadline.
	a.serviceEWMA.Store(100_000)

	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err = a.Acquire(ctx)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("expected ShedError, got %v", err)
	}
	if shed.Reason != "deadline" {
		t.Fatalf("reason = %q", shed.Reason)
	}
	if got := a.Stats().ShedDeadline; got != 1 {
		t.Fatalf("ShedDeadline = %d", got)
	}
	// A queued request with a generous deadline must NOT be deadline-shed.
	done := make(chan error, 1)
	go func() {
		ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		rel, err := a.Acquire(ctx2)
		if rel != nil {
			rel()
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	hold()
	if err := <-done; err != nil {
		t.Fatalf("generous-deadline waiter: %v", err)
	}
}

func TestAdmissionContextCancelWhileQueued(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4})
	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		rel, err := a.Acquire(ctx)
		if rel != nil {
			rel()
		}
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := a.Stats().Queued; got != 0 {
		t.Fatalf("queue counter leaked: %d", got)
	}
}

func TestAdmissionConcurrentIntegrity(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 4, MaxQueue: 8})
	var inFlight, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			rel, err := a.Acquire(ctx)
			if err != nil {
				return // shed or expired: fine, just never over-admit
			}
			cur := inFlight.Add(1)
			for {
				m := maxSeen.Load()
				if cur <= m || maxSeen.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			rel()
		}()
	}
	wg.Wait()
	if m := maxSeen.Load(); m > 4 {
		t.Fatalf("concurrency limit breached: %d in flight", m)
	}
	st := a.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("counters leaked: %+v", st)
	}
}

func TestLadderEscalatesAndRecovers(t *testing.T) {
	l := NewLadder(LadderConfig{UpAfter: 2, DownAfter: 3})
	if l.Level() != LevelFull {
		t.Fatalf("initial level %d", l.Level())
	}
	// Two high-pressure observations per step.
	for step := 1; step <= MaxLevel; step++ {
		l.Observe(0.9, 0)
		if got := l.Observe(0.9, 0); got != step {
			t.Fatalf("after %d high pairs: level %d, want %d", step, got, step)
		}
	}
	// Further pressure cannot exceed MaxLevel.
	l.Observe(1.0, 0)
	l.Observe(1.0, 0)
	if got := l.Level(); got != MaxLevel {
		t.Fatalf("level %d beyond MaxLevel", got)
	}
	// Recovery: three calm observations per step down.
	obs := 0
	for l.Level() > LevelFull {
		l.Observe(0.0, 0)
		if obs++; obs > 3*MaxLevel+1 {
			t.Fatalf("ladder stuck at level %d after %d calm observations", l.Level(), obs)
		}
	}
	st := l.Stats()
	if st.Escalations != MaxLevel || st.Deescalations != MaxLevel {
		t.Fatalf("stats %+v", st)
	}
}

func TestLadderHysteresis(t *testing.T) {
	l := NewLadder(LadderConfig{UpAfter: 2, DownAfter: 3})
	// A single spike does not escalate.
	l.Observe(0.9, 0)
	l.Observe(0.0, 0)
	if got := l.Level(); got != LevelFull {
		t.Fatalf("one spike escalated to %d", got)
	}
	// Mid-band pressure holds the level and resets streaks.
	l.Observe(0.9, 0)
	l.Observe(0.5, 0)
	l.Observe(0.9, 0)
	if got := l.Level(); got != LevelFull {
		t.Fatalf("interrupted streak escalated to %d", got)
	}
}

func TestLadderP99Trend(t *testing.T) {
	l := NewLadder(LadderConfig{UpAfter: 1, DownAfter: 100})
	// Calm traffic teaches the baseline.
	for i := 0; i < 16; i++ {
		l.Observe(0.0, 1000)
	}
	// Queue empty but p99 exploded to 20× baseline: trend alone escalates.
	if got := l.Observe(0.0, 20_000); got != LevelNoSubsume {
		t.Fatalf("p99 explosion did not escalate: level %d", got)
	}
}

func TestLadderSetLevel(t *testing.T) {
	l := NewLadder(LadderConfig{})
	l.SetLevel(99)
	if got := l.Level(); got != MaxLevel {
		t.Fatalf("SetLevel(99) -> %d", got)
	}
	l.SetLevel(-1)
	if got := l.Level(); got != LevelFull {
		t.Fatalf("SetLevel(-1) -> %d", got)
	}
}

func TestQuarantineStrikesAndBlocks(t *testing.T) {
	q := NewQuarantine(QuarantineConfig{Strikes: 2})
	k := Key{1, 2}
	if q.Blocked(k) {
		t.Fatal("unknown key blocked")
	}
	if n := q.Strike(k, "boom"); n != 1 {
		t.Fatalf("first strike count %d", n)
	}
	if q.Blocked(k) {
		t.Fatal("one strike already blocks")
	}
	if n := q.Strike(k, "boom again"); n != 2 {
		t.Fatalf("second strike count %d", n)
	}
	if !q.Blocked(k) {
		t.Fatal("two strikes must block")
	}
	st := q.Stats()
	if st.Tracked != 1 || st.Quarantined != 1 || st.Strikes != 2 || st.Blocked == 0 {
		t.Fatalf("stats %+v", st)
	}
	ents := q.Entries()
	if len(ents) != 1 || !ents[0].Active || ents[0].LastMsg != "boom again" {
		t.Fatalf("entries %+v", ents)
	}
	if n := q.Reset(); n != 1 {
		t.Fatalf("reset dropped %d", n)
	}
	if q.Blocked(k) {
		t.Fatal("blocked after reset")
	}
}

func TestQuarantineBoundedEviction(t *testing.T) {
	q := NewQuarantine(QuarantineConfig{Strikes: 2, MaxTracked: 4})
	poison := Key{42, 42}
	q.Strike(poison, "p1")
	q.Strike(poison, "p2") // quarantined: must survive eviction pressure
	for i := uint64(0); i < 16; i++ {
		q.Strike(Key{i, 0}, "transient")
	}
	if got := q.Stats().Tracked; got > 4 {
		t.Fatalf("tracked %d exceeds bound", got)
	}
	if !q.Blocked(poison) {
		t.Fatal("confirmed poison was evicted by transients")
	}
}

func TestQuarantineConcurrent(t *testing.T) {
	q := NewQuarantine(QuarantineConfig{Strikes: 3, MaxTracked: 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{uint64(i % 32), 0}
				q.Strike(k, "x")
				q.Blocked(k)
			}
		}(w)
	}
	wg.Wait()
	if got := q.Stats().Strikes; got != 8*200 {
		t.Fatalf("strikes %d", got)
	}
}
