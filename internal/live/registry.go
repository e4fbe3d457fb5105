package live

import (
	"fmt"
	"sync"
	"time"

	"movingdb/internal/fault"
	"movingdb/internal/geom"
	"movingdb/internal/index"
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

// Registry owns the standing queries: subscriptions indexed two ways
// (by subject object id for the id-bound forms, through an R-tree over
// bounding rectangles for the region-scoped forms — the same index
// structure the data path uses, turned around to index queries), a
// bounded queue of epoch publishes, and one notifier goroutine that
// drains the queue and evaluates only the subscriptions whose bounds
// intersect the publish's dirty set. Safe for concurrent use.
type Registry struct {
	cfg Config // moguard: immutable

	mu         sync.Mutex
	subs       map[string]*Subscription            // moguard: guarded by mu
	byObject   map[string]map[string]*Subscription // moguard: guarded by mu // id-bound subs keyed by subject, then sub id
	regions    *index.Dynamic                      // moguard: guarded by mu // region-scoped subs; rebuilt when tombstones pile up
	regionSubs map[int64]*Subscription             // moguard: guarded by mu // region-index key → sub; absent = tombstone
	tombstones int                                 // moguard: guarded by mu
	nextID     uint64                              // moguard: guarded by mu
	nextKey    int64                               // moguard: guarded by mu
	queue      []notice                            // moguard: guarded by mu
	closed     bool                                // moguard: guarded by mu

	wake chan struct{} // moguard: immutable
	done chan struct{} // moguard: immutable
	wg   sync.WaitGroup
}

// NewRegistry starts a registry and its notifier goroutine. Callers
// must Close it to stop the goroutine and end every event stream.
func NewRegistry(cfg Config) *Registry {
	r := &Registry{
		cfg:        cfg.withDefaults(),
		subs:       make(map[string]*Subscription),
		byObject:   make(map[string]map[string]*Subscription),
		regions:    index.NewDynamic(nil, 0),
		regionSubs: make(map[int64]*Subscription),
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
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
// object inside the predicate emits an enter). Returns the subscription
// whose Events stream the caller reads.
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
	var key int64
	if !p.idBound() {
		r.nextKey++
		key = r.nextKey
	}
	s := &Subscription{
		id:      fmt.Sprintf("s%d", r.nextID),
		pred:    p,
		bound:   p.Bound(),
		key:     key,
		buf:     make([]Event, r.cfg.BufferCap),
		members: make(map[string]struct{}),
		ch:      make(chan struct{}, 1),
		doneCh:  make(chan struct{}),
		metrics: r.cfg.Metrics,
	}
	s.seed(ep)
	r.subs[s.id] = s
	if p.idBound() {
		m := r.byObject[p.Object]
		if m == nil {
			m = make(map[string]*Subscription)
			r.byObject[p.Object] = m
		}
		m[s.id] = s
	} else {
		r.regionSubs[s.key] = s
		r.regions.Insert(index.Entry{Cube: fullTimeCube(s.bound), ID: s.key})
	}
	r.cfg.Metrics.Live.Subscribes.Inc()
	return s, nil
}

// fullTimeCube lifts a rectangle into the index's (x, y, t) space with
// an unbounded time extent — subscriptions outlive any epoch.
func fullTimeCube(rect geom.Rect) geom.Cube {
	const inf = 1e308
	return geom.Cube{Rect: rect, MinT: -inf, MaxT: inf}
}

// Get returns a subscription by id.
func (r *Registry) Get(id string) (*Subscription, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.subs[id]
	return s, ok
}

// Unsubscribe removes a subscription and ends its event stream. The
// region index keeps a tombstone (the Dynamic index is append-only)
// until enough pile up to amortise a rebuild over the survivors.
func (r *Registry) Unsubscribe(id string) bool {
	r.mu.Lock()
	s, ok := r.subs[id]
	if ok {
		delete(r.subs, id)
		if s.pred.idBound() {
			m := r.byObject[s.pred.Object]
			delete(m, id)
			if len(m) == 0 {
				delete(r.byObject, s.pred.Object)
			}
		} else {
			delete(r.regionSubs, s.key)
			r.tombstones++
			if r.tombstones > 64 && r.tombstones > len(r.regionSubs) {
				r.rebuildRegionsLocked()
			}
		}
	}
	r.mu.Unlock()
	if ok {
		s.close()
		r.cfg.Metrics.Live.Unsubscribes.Inc()
	}
	return ok
}

// rebuildRegionsLocked re-indexes the surviving region subscriptions,
// shedding tombstoned entries. Caller holds r.mu.
func (r *Registry) rebuildRegionsLocked() {
	entries := make([]index.Entry, 0, len(r.regionSubs))
	for key, s := range r.regionSubs {
		entries = append(entries, index.Entry{Cube: fullTimeCube(s.bound), ID: key})
	}
	r.regions = index.NewDynamic(index.Build(entries), 0)
	r.tombstones = 0
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
// The registry lock covers only the queue pop and the candidate lookup;
// evaluation and delivery run outside it, so a slow evaluation never
// blocks the ingest flush path (Notify only ever waits for a candidate
// collection, not for an evaluation). Per-subscription event order is
// still total: this is the only goroutine that evaluates.
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
		cands := r.candidatesLocked(n)
		r.mu.Unlock()
		start := time.Now()
		var events, dropped int64
		for _, s := range cands {
			ev, dr := s.evaluate(n)
			events += int64(ev)
			dropped += int64(dr)
		}
		m := &r.cfg.Metrics.Live
		m.Events.Add(events)
		m.Dropped.Add(dropped)
		m.Eval.ObserveN(len(cands), time.Since(start))
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
	subs := make([]*Subscription, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
	}
	r.mu.Unlock()
	close(r.done)
	r.wg.Wait()
	for _, s := range subs {
		s.close()
	}
}
