package ingest

import (
	"sync"
	"time"
)

// health is the store-health state machine behind graceful degradation.
// Consecutive exhausted-retry failures past the threshold flip the
// pipeline to degraded: ingest fails fast with ErrDegraded (503 at the
// HTTP layer) instead of burning retry budgets per request, while reads
// keep serving the last consistent state. While degraded, one attempt
// per probe interval is let through as the health probe; the first
// success clears the state — recovery is automatic once the fault
// clears.
// It keeps a lock of its own, taken after Pipeline.mu: allowAttempt must
// fail fast while degraded, not queue behind a probe that holds
// Pipeline.mu through its retry sleeps.
type health struct {
	mu         sync.Mutex
	threshold  int           // immutable
	probeEvery time.Duration // immutable

	consec    int       // guarded by mu
	degraded  bool      // guarded by mu
	cause     string    // guarded by mu
	since     time.Time // guarded by mu
	lastProbe time.Time // guarded by mu
	// Cumulative dead letters: batches (and their observations) that
	// exhausted their retries and were refused with ErrDegraded.
	deadBatches int // guarded by mu
	deadObs     int // guarded by mu
}

func newHealth(threshold int, probeEvery time.Duration) *health {
	return &health{threshold: threshold, probeEvery: probeEvery}
}

// allowAttempt reports whether the write path should try the store at
// all. Healthy: always. Degraded: only when the probe timer has
// expired, and then the caller's attempt is the probe.
func (h *health) allowAttempt(now time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.degraded {
		return true
	}
	if now.Sub(h.lastProbe) >= h.probeEvery {
		h.lastProbe = now
		return true
	}
	return false
}

// onFailure records one exhausted-retry failure of a batch of n
// observations and flips to degraded at the threshold.
func (h *health) onFailure(cause string, n int, now time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.deadBatches++
	h.deadObs += n
	h.consec++
	if !h.degraded && h.consec >= h.threshold {
		h.degraded = true
		h.cause = cause
		h.since = now
		h.lastProbe = now
	}
}

// onSuccess clears the failure streak and, if degraded, restores
// healthy operation.
func (h *health) onSuccess() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consec = 0
	h.degraded = false
	h.cause = ""
}

func (h *health) report() Health {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := Health{
		Degraded: h.degraded, Cause: h.cause, ConsecutiveFailures: h.consec,
		DeadLetterBatches: h.deadBatches, DeadLetterObs: h.deadObs,
	}
	if h.degraded {
		r.SinceUnixMS = h.since.UnixMilli()
	}
	return r
}

// Health is the pipeline's health report, served by /v1/healthz. The
// dead-letter fields count, since Open, the batches that exhausted their
// retries; none of them was acknowledged, so none is kept.
type Health struct {
	Degraded            bool   `json:"degraded"`
	Cause               string `json:"cause,omitempty"`
	SinceUnixMS         int64  `json:"since_unix_ms,omitempty"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	DeadLetterBatches   int    `json:"dead_letter_batches"`
	DeadLetterObs       int    `json:"dead_letter_observations"`
}
