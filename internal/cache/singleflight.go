package cache

import (
	"errors"
	"sync"
)

// Loader fronts a ResultCache with miss coalescing: when a thundering
// herd of identical requests misses, exactly one caller computes and
// every concurrent duplicate waits for that result instead of
// recomputing it. The computed value is stored once, so an epoch
// advance under load costs one evaluation per distinct query, not one
// per request.
//
// A nil-cache Loader still coalesces — useful when caching is disabled
// but duplicate suppression is wanted.
type Loader struct {
	cache    ResultCache // moguard: immutable // nil disables storage, not coalescing
	mu       sync.Mutex
	inflight map[Key]*flight // moguard: guarded by mu
}

// flight is one in-progress computation; done closes when val/err are
// final.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// NewLoader builds a Loader over c (nil is allowed).
func NewLoader(c ResultCache) *Loader {
	return &Loader{cache: c, inflight: make(map[Key]*flight)}
}

// Do returns the cached bytes for k, or computes them exactly once
// across concurrent callers. hit reports whether the result came from
// the cache (a waiter that piggybacked on another caller's computation
// reports hit=false: the value was evaluated this round, just not by
// this caller). Errors are not cached; every waiter of a failed flight
// receives the same error.
//
// compute runs under the first caller's context; a canceled first
// caller fails the whole flight, and the next request simply retries.
func (l *Loader) Do(k Key, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	if l.cache != nil {
		if v, ok := l.cache.Get(k); ok {
			return v, true, nil
		}
	}
	l.mu.Lock()
	if f, ok := l.inflight[k]; ok {
		l.mu.Unlock()
		<-f.done
		return f.val, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	l.inflight[k] = f
	l.mu.Unlock()

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

// settle publishes the flight's outcome and unregisters it.
func (l *Loader) settle(k Key, f *flight) {
	l.mu.Lock()
	delete(l.inflight, k)
	l.mu.Unlock()
	close(f.done)
}
