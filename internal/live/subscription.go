package live

import (
	"sync"

	"movingdb/internal/geom"
	"movingdb/internal/obs"
)

// Subscription is one registered standing query plus its delivery
// state: the edge-trigger memory (last evaluated truth, or the member
// set for appears) and a bounded ring of undelivered events. A slow
// consumer never blocks the notifier — when the ring is full the oldest
// event is dropped and the stream is marked lagged, which the SSE layer
// surfaces to the client as an explicit lagged marker. Events within a
// subscription are ordered (Seq is assigned under the ring lock) and
// delivered at least once per evaluated epoch while the ring keeps up.
type Subscription struct {
	id      string       // immutable
	pred    Predicate    // immutable
	bound   geom.Rect    // immutable
	seedSeq uint64       // immutable; seed epoch's Seq (0 for nil); publishes up to it are history
	metrics *obs.Metrics // immutable; never nil

	mu      sync.Mutex
	state   bool                // guarded by mu; id-bound forms: last evaluated truth
	members map[string]struct{} // guarded by mu; appears: objects currently inside
	buf     []Event             // guarded by mu; ring storage, fixed capacity
	head    int                 // guarded by mu; ring read cursor
	n       int                 // guarded by mu; ring occupancy
	seq     uint64              // guarded by mu; last assigned event sequence
	drops   uint64              // guarded by mu; events evicted over the lifetime
	lagged  bool                // guarded by mu; eviction since the last Take
	closed  bool                // guarded by mu

	ch     chan struct{} // immutable; new-events signal, capacity 1
	doneCh chan struct{} // immutable; closed on unsubscribe / registry close
}

// ID returns the subscription identifier clients address streams by.
func (s *Subscription) ID() string { return s.id }

// Predicate returns the standing query.
func (s *Subscription) Predicate() Predicate { return s.pred }

// pushLocked appends an event to the ring, assigning its sequence
// number, evicting the oldest event when full. Caller holds s.mu.
func (s *Subscription) pushLocked(e Event) (dropped bool) {
	s.seq++
	e.Seq = s.seq
	if s.n == len(s.buf) {
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.drops++
		dropped = true
		if !s.lagged {
			s.lagged = true
			s.metrics.Live.Lagged.Inc()
		}
	}
	s.buf[(s.head+s.n)%len(s.buf)] = e
	s.n++
	select {
	case s.ch <- struct{}{}:
	default:
	}
	return dropped
}

// Take removes and returns every buffered event, oldest first, plus
// whether the stream lagged (dropped events) since the previous Take;
// the lagged flag clears.
func (s *Subscription) Take() ([]Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lagged := s.lagged
	s.lagged = false
	if s.n == 0 {
		return nil, lagged
	}
	out := make([]Event, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.buf[(s.head+i)%len(s.buf)])
	}
	s.head, s.n = 0, 0
	return out, lagged
}

// Wait returns the channel signalled when new events are buffered.
func (s *Subscription) Wait() <-chan struct{} { return s.ch }

// Done returns the channel closed when the subscription ends —
// unsubscribe or registry shutdown.
func (s *Subscription) Done() <-chan struct{} { return s.doneCh }

// close ends the stream. Idempotent.
func (s *Subscription) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.doneCh)
	}
	s.mu.Unlock()
}

// Info is the JSON description served at GET /v1/subscribe/{id}.
type Info struct {
	ID        string `json:"subscription_id"`
	Predicate string `json:"predicate"`
	Seq       uint64 `json:"seq"`
	Buffered  int    `json:"buffered"`
	Dropped   uint64 `json:"dropped"`
	Lagged    bool   `json:"lagged"`
	Active    bool   `json:"active"`
}

// Info snapshots the subscription's delivery state.
func (s *Subscription) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Info{
		ID:        s.id,
		Predicate: s.pred.String(),
		Seq:       s.seq,
		Buffered:  s.n,
		Dropped:   s.drops,
		Lagged:    s.lagged,
		Active:    !s.closed,
	}
}
