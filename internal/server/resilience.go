package server

// resilience.go: the serving-layer half of overload protection — admission
// gating on the data-plane handlers, the pressure monitor that walks the
// graceful-degradation ladder, the liveness/readiness split, and the
// poison-query quarantine endpoints.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sqo/internal/obs"
	"sqo/internal/resilience"
)

// admit gates one data-plane request through the admission controller. On
// admission it returns the release closure and true; on refusal it writes
// the response itself — 429 with a Retry-After header for a shed, the
// mapped status for a context expiry — and returns false.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) (func(), bool) {
	tr := obs.FromContext(ctx)
	at := tr.StartSpan()
	release, err := s.adm.Acquire(ctx)
	tr.EndSpan(obs.StageAdmission, at)
	if err == nil {
		return release, true
	}
	var shed *resilience.ShedError
	if errors.As(err, &shed) {
		secs := int64(shed.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeError(w, http.StatusTooManyRequests, err)
	} else {
		writeError(w, statusForError(err), err)
	}
	return nil, false
}

// monitor is the pressure loop: every MonitorInterval it feeds the ladder
// one observation — the admission queue's fill fraction plus the windowed
// p99 across the data-plane endpoints — and pushes the resulting level into
// the engine. Level changes are logged; the serving path reads the level
// with one atomic load.
func (s *Server) monitor() {
	defer close(s.monDone)
	ticker := time.NewTicker(s.cfg.MonitorInterval)
	defer ticker.Stop()
	var optPrev, batchPrev, queryPrev histCursor
	last := s.ladder.Level()
	for {
		select {
		case <-s.monStop:
			return
		case <-ticker.C:
		}
		p99 := maxInt64(
			s.optimizeM.hist.windowP99(&optPrev),
			s.batchM.hist.windowP99(&batchPrev),
			s.queryM.hist.windowP99(&queryPrev),
		)
		level := s.ladder.Observe(s.adm.QueueFraction(), p99)
		if level != last {
			s.log.Info("degradation level changed",
				"from", resilience.LevelName(last), "to", resilience.LevelName(level),
				"queue_fraction", s.adm.QueueFraction(), "window_p99_us", p99)
			last = level
		}
		s.eng.SetDegradation(level)
	}
}

func maxInt64(vals ...int64) int64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// SetDegradation pins the ladder (and the engine) to a level — the operator
// override and the test hook. The pressure monitor keeps observing from the
// pinned level.
func (s *Server) SetDegradation(level int) {
	s.ladder.SetLevel(level)
	s.eng.SetDegradation(s.ladder.Level())
}

// readyzResponse is the body of GET /readyz.
type readyzResponse struct {
	Status           string `json:"status"` // "ready" or "draining"
	DegradationLevel int    `json:"degradation_level"`
	DegradationName  string `json:"degradation_name"`
}

// handleReadyz is readiness: should a load balancer route new traffic here?
// False (503) while draining; degradation is reported but does not fail
// readiness — a degraded node still answers correctly, just less cheaply.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	lvl := s.ladder.Level()
	resp := readyzResponse{
		Status:           "ready",
		DegradationLevel: lvl,
		DegradationName:  resilience.LevelName(lvl),
	}
	code := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// quarantineEntry is one register row on the wire, fingerprint rendered as
// the same hex form QueryFingerprint.String uses.
type quarantineEntry struct {
	Fingerprint string `json:"fingerprint"`
	resilience.QuarantineEntry
}

// quarantineResponse is the body of GET /quarantine. The register's
// counters are the sqo_quarantine_* families on /metrics.
type quarantineResponse struct {
	Entries []quarantineEntry `json:"entries"`
}

func (s *Server) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	ents := s.eng.QuarantineEntries()
	resp := quarantineResponse{Entries: make([]quarantineEntry, len(ents))}
	for i, e := range ents {
		resp.Entries[i] = quarantineEntry{
			Fingerprint:     fmt.Sprintf("%016x%016x", e.Key[0], e.Key[1]),
			QuarantineEntry: e,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleQuarantineReset(w http.ResponseWriter, r *http.Request) {
	n := s.eng.QuarantineReset()
	s.log.Info("quarantine reset", "dropped", n)
	writeJSON(w, http.StatusOK, map[string]int{"dropped": n})
}
