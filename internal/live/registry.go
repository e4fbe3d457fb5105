package live

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"movingdb/internal/fault"
	"movingdb/internal/ingest"
	"movingdb/internal/obs"
)

// Event is one edge-triggered notification: a predicate flipped for an
// object at an epoch publish. Seq is the per-subscription sequence
// (contiguous when nothing was dropped), Epoch the publishing epoch,
// Edge "enter" or "leave", and (X, Y, T) the object's latest observed
// sample. PubUnixNS is the wall-clock instant the publishing flush
// handed the epoch to the registry — subtracting it from the receive
// time gives the end-to-end publish→delivery latency (benchmark E10).
type Event struct {
	Seq       uint64  `json:"seq"`
	Epoch     uint64  `json:"epoch"`
	Edge      string  `json:"edge"`
	Object    string  `json:"object"`
	T         float64 `json:"t"`
	X         float64 `json:"x"`
	Y         float64 `json:"y"`
	PubUnixNS int64   `json:"pub_unix_ns"`
}

// notice is one epoch publish queued for the notifier goroutine.
type notice struct {
	ep    *ingest.Epoch
	dirty []ingest.DirtyObject
	pubNS int64
}

// Config tunes a Registry.
type Config struct {
	// BufferCap bounds each subscriber's event ring; when a slow
	// consumer falls BufferCap events behind, the oldest events are
	// dropped and the stream is marked lagged. Default 256.
	BufferCap int
	// QueueCap bounds the publish queue between the ingest hook and the
	// notifier goroutine; when full, the two oldest publishes coalesce
	// (dirty sets merged, both epochs' edges still detected — only the
	// intermediate epoch attribution is lost). Default 64.
	QueueCap int
	// Metrics receives subscription/event/lag counters. Default: a
	// private registry nobody reads.
	Metrics *obs.Metrics
}

func (c Config) withDefaults() Config {
	if c.BufferCap <= 0 {
		c.BufferCap = 256
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	} else if c.QueueCap < 2 {
		c.QueueCap = 2 // the overflow path coalesces the two oldest notices
	}
	if c.Metrics == nil {
		c.Metrics = obs.New(0)
	}
	return c
}

// Registry owns the standing queries: one list of subscriptions in
// subscribe order beside a by-id map for the routes, a bounded queue of
// epoch publishes, and one notifier goroutine that drains the queue and
// hands each publish to every subscription, which filters it by the
// dirty set itself (eval.go). Safe for concurrent use.
type Registry struct {
	cfg Config // immutable

	mu     sync.Mutex
	subs   map[string]*Subscription // guarded by mu
	order  []*Subscription          // guarded by mu; the same subs in subscribe order
	nextID uint64                   // guarded by mu
	queue  []notice                 // guarded by mu
	closed bool                     // guarded by mu

	wake chan struct{} // immutable
	done chan struct{} // immutable
	wg   sync.WaitGroup
}

// NewRegistry starts a registry and its notifier goroutine. Callers
// must Close it to stop the goroutine and end every event stream.
func NewRegistry(cfg Config) *Registry {
	r := &Registry{
		cfg:  cfg.withDefaults(),
		subs: make(map[string]*Subscription),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			select {
			case <-r.done:
				return
			case <-r.wake:
				r.drain()
			}
		}
	}()
	return r
}

// Subscribe registers a standing query and seeds its edge-trigger state
// from ep (nil means "nothing inside yet": the first publish placing an
// object inside the predicate emits an enter). Publishes up to ep's,
// even those still queued, are history the seed already holds and
// produce no events. Returns the subscription whose Events stream the
// caller reads.
func (r *Registry) Subscribe(p Predicate, ep *ingest.Epoch) (*Subscription, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("live: registry is closed")
	}
	r.nextID++
	s := &Subscription{
		id:      fmt.Sprintf("s%d", r.nextID),
		pred:    p,
		bound:   p.Bound(),
		buf:     make([]Event, r.cfg.BufferCap),
		members: make(map[string]struct{}),
		ch:      make(chan struct{}, 1),
		doneCh:  make(chan struct{}),
		metrics: r.cfg.Metrics,
	}
	if ep != nil {
		s.seedSeq = ep.Seq()
	}
	s.seed(ep)
	r.subs[s.id] = s
	r.order = append(r.order, s)
	r.cfg.Metrics.Live.Subscribes.Inc()
	return s, nil
}

// Get returns a subscription by id.
func (r *Registry) Get(id string) (*Subscription, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.subs[id]
	return s, ok
}

// Unsubscribe removes a subscription and ends its event stream.
func (r *Registry) Unsubscribe(id string) bool {
	r.mu.Lock()
	s, ok := r.subs[id]
	if ok {
		delete(r.subs, id)
		i := slices.Index(r.order, s)
		r.order = slices.Delete(r.order, i, i+1)
	}
	r.mu.Unlock()
	if ok {
		s.close()
		r.cfg.Metrics.Live.Unsubscribes.Inc()
	}
	return ok
}

// Notify is the ingest pipeline's OnPublish hook. It runs on the flush
// path, so it only stamps the publish, merges it into the bounded queue
// and wakes the notifier — never evaluates, never blocks. When the
// queue is full the two oldest publishes coalesce: their dirty sets
// merge (keeping the older timestamp and the newer epoch), which
// preserves every edge because edges are state flips against the
// subscription's last evaluated state.
func (r *Registry) Notify(ep *ingest.Epoch, dirty []ingest.DirtyObject) {
	pubNS := time.Now().UnixNano()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	coalesced := false
	if len(r.queue) >= r.cfg.QueueCap {
		merged := notice{
			ep:    r.queue[1].ep,
			dirty: mergeDirty(r.queue[0].dirty, r.queue[1].dirty),
			pubNS: r.queue[0].pubNS,
		}
		r.queue[1] = merged
		r.queue[0] = notice{}
		r.queue = r.queue[1:]
		coalesced = true
	}
	// Publish hand-off: the store builds a fresh dirty slice per publish
	// and the epoch is frozen COW state, so both are retained as is.
	r.queue = append(r.queue, notice{ep: ep, dirty: dirty, pubNS: pubNS})
	r.mu.Unlock()
	r.cfg.Metrics.Live.Notifies.Inc()
	if coalesced {
		r.cfg.Metrics.Live.Coalesced.Inc()
	}
	if err := fault.Hit("live.notify"); err != nil {
		// Injected wake-up loss. The notice is already queued, so nothing
		// is dropped — delivery is deferred until the next publish wakes
		// the notifier (which drains the queue in order).
		return
	}
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// drain evaluates queued publishes in order until the queue is empty.
// The registry lock covers only the queue pop and the copy of the
// subscription list; filtering, evaluation and delivery run outside it,
// so a slow evaluation never blocks the ingest flush path (Notify only
// ever waits for a list copy, not for an evaluation). Per-subscription
// event order is still total: this is the only goroutine that
// evaluates.
func (r *Registry) drain() {
	for {
		r.mu.Lock()
		if len(r.queue) == 0 {
			r.mu.Unlock()
			return
		}
		n := r.queue[0]
		r.queue[0] = notice{}
		r.queue = r.queue[1:]
		subs := slices.Clone(r.order)
		r.mu.Unlock()
		start := time.Now()
		var cands int
		var events, dropped int64
		for _, s := range subs {
			cand, ev, dr := s.evaluate(n)
			if cand {
				cands++
			}
			events += int64(ev)
			dropped += int64(dr)
		}
		m := &r.cfg.Metrics.Live
		m.Events.Add(events)
		m.Dropped.Add(dropped)
		m.Eval.ObserveN(cands, time.Since(start))
	}
}

// Close stops the notifier goroutine, waits for it, and ends every
// subscription's event stream. Idempotent; wired into the server's
// SIGTERM drain so in-flight SSE handlers unblock and return.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.queue = nil
	subs := slices.Clone(r.order) // Unsubscribe deletes from r.order in place
	r.mu.Unlock()
	close(r.done)
	r.wg.Wait()
	for _, s := range subs {
		s.close()
	}
}
