package cache

import (
	"context"
	"errors"
	"sync"

	"movingdb/internal/obs"
)

// Loader fronts a ResultCache with miss coalescing: when a thundering
// herd of identical requests misses, exactly one caller computes and
// every concurrent duplicate waits for that result instead of
// recomputing it. The computed value is stored once, so an epoch
// advance under load costs one evaluation per distinct query, not one
// per request.
//
// The Loader is where a lookup is counted: each Do over a non-nil
// cache adds one hit (it returned hit=true) or one miss to
// metrics.Cache, whatever adapter sits behind the port. A nil-cache
// Loader counts nothing but still coalesces — useful when caching is
// disabled but duplicate suppression is wanted.
type Loader struct {
	cache    ResultCache  // immutable; nil disables storage, not coalescing
	metrics  *obs.Metrics // immutable; synchronises itself, never nil
	mu       sync.Mutex
	inflight map[Key]*flight // guarded by mu; running flights
}

// flight is one in-progress computation; done closes when val/err are
// final.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// NewLoader builds a Loader over c (nil is allowed). metrics receives
// the hit and miss counts; nil keeps them in a private registry.
func NewLoader(c ResultCache, metrics *obs.Metrics) *Loader {
	if metrics == nil {
		metrics = obs.New(0)
	}
	return &Loader{cache: c, metrics: metrics, inflight: make(map[Key]*flight)}
}

// Do returns the cached bytes for k, or computes them exactly once
// across concurrent callers. hit reports whether the result came from
// the cache (a waiter that piggybacked on another caller's computation
// reports hit=false: the value was evaluated this round, just not by
// this caller). Errors are not cached.
//
// A miss looks up the cache a second time under l.mu before it starts
// a flight: a flight Puts before it unregisters under l.mu, so a
// caller that missed just before a flight's Put either finds the
// flight still registered or finds its value, and k is not computed
// twice.
//
// compute runs under the first caller's context. Waiters share the
// flight's error, except a context.Canceled or
// context.DeadlineExceeded: that is the first caller's deadline or
// disconnect, not theirs, so a waiter looks again, joining a newer
// flight or computing under its own compute.
func (l *Loader) Do(k Key, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	if l.cache != nil {
		if v, ok := l.cache.Get(k); ok {
			l.metrics.Cache.Hits.Inc()
			return v, true, nil
		}
	}
	var f *flight
	for f == nil {
		l.mu.Lock()
		if w, ok := l.inflight[k]; ok {
			l.mu.Unlock()
			<-w.done
			if !errors.Is(w.err, context.Canceled) && !errors.Is(w.err, context.DeadlineExceeded) {
				l.countMiss()
				return w.val, false, w.err
			}
			continue
		}
		if l.cache != nil {
			if v, ok := l.cache.Get(k); ok {
				l.mu.Unlock()
				l.metrics.Cache.Hits.Inc()
				return v, true, nil
			}
		}
		f = &flight{done: make(chan struct{})}
		l.inflight[k] = f
		l.mu.Unlock()
	}
	l.countMiss()

	// Settle the flight even if compute panics (the HTTP layer recovers
	// panics, and a flight that never closes would hang every waiter);
	// the panic itself propagates to this caller.
	defer func() {
		if p := recover(); p != nil {
			f.err = ErrComputePanicked
			l.settle(k, f)
			panic(p)
		}
	}()
	f.val, f.err = compute()
	if f.err == nil && l.cache != nil {
		l.cache.Put(k, f.val)
	}
	l.settle(k, f)
	return f.val, false, f.err
}

// ErrComputePanicked is the error waiters of a flight receive when the
// computing caller panicked.
var ErrComputePanicked = errors.New("cache: result computation panicked")

// countMiss counts a Do that returns no stored value.
func (l *Loader) countMiss() {
	if l.cache != nil {
		l.metrics.Cache.Misses.Inc()
	}
}

// settle unregisters the flight and publishes its outcome. A caller
// that takes l.mu after this finds the flight's Put in the cache, or,
// for a failed flight, nothing, and computes again.
func (l *Loader) settle(k Key, f *flight) {
	l.mu.Lock()
	delete(l.inflight, k)
	l.mu.Unlock()
	close(f.done)
}
