package cache

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
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
	// looking counts callers between entering Do and leaving the lookup
	// (a hit returned, or mu taken after a miss): each may have missed in
	// the cache just before a flight's Put. A flight that succeeds while
	// one is looking stays in inflight for it, and the last caller to stop
	// looking unregisters it. The count is striped so that hits on
	// different cores do not all write one cache line (first in the
	// struct, so no other field shares a stripe's line); a caller leaves
	// the stripe it entered. A nil cache has no lookup, so nothing looks.
	looking  [lookStripes]stripe // moguard: atomic
	cache    ResultCache         // moguard: immutable // nil disables storage, not coalescing
	kept     atomic.Bool         // moguard: atomic // written under mu: settled is not empty
	mu       sync.Mutex
	inflight map[Key]*flight // moguard: guarded by mu // running flights, and succeeded ones kept for lookers
	settled  []Key           // moguard: guarded by mu // keys of the kept flights
}

// lookStripes is how many counters looking is spread over.
const lookStripes = 16

// stripe is one looking counter, alone on its cache line.
type stripe struct {
	n atomic.Int64
	_ [56]byte
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
	var look *atomic.Int64
	if l.cache != nil {
		//molint:ignore det-path the stripe only spreads counter writes; which one a caller takes changes no result, count or order
		look = &l.looking[rand.Uint32()%lookStripes].n
		look.Add(1)
		if v, ok := l.cache.Get(k); ok {
			if look.Add(-1) == 0 && l.kept.Load() {
				l.mu.Lock()
				l.sweepLocked()
				l.mu.Unlock()
			}
			return v, true, nil
		}
	}
	l.mu.Lock()
	f, ok := l.inflight[k]
	if look != nil {
		look.Add(-1)
		l.sweepLocked()
	}
	if ok {
		l.mu.Unlock()
		<-f.done
		return f.val, false, f.err
	}
	f = &flight{done: make(chan struct{})}
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

// settle publishes the flight's outcome. A failed flight is
// unregistered at once: it stored nothing, so a caller that missed
// before it misses again and retries. A successful one stays
// registered while any caller is looking, so one that missed in the
// cache before this flight's Put finds it there instead of computing k
// a second time, and counts no second lookup.
func (l *Loader) settle(k Key, f *flight) {
	l.mu.Lock()
	if f.err != nil {
		delete(l.inflight, k)
	} else {
		l.settled = append(l.settled, k)
		l.kept.Store(true) // before sweepLocked reads looking: a caller that stops looking after that read sees it
		l.sweepLocked()
	}
	l.mu.Unlock()
	close(f.done)
}

// sweepLocked unregisters every kept flight once nobody is looking. A
// caller that starts looking after that looks up the cache after those
// flights' Puts. A stripe reads 0 only if every caller that entered it
// has left (a caller leaves after it enters), so a caller that looked
// across a kept flight's Put keeps its stripe above 0. Caller holds
// l.mu.
func (l *Loader) sweepLocked() {
	if len(l.settled) == 0 {
		return
	}
	for i := range l.looking {
		if l.looking[i].n.Load() != 0 {
			return
		}
	}
	for _, k := range l.settled {
		delete(l.inflight, k)
	}
	l.settled = l.settled[:0]
	l.kept.Store(false)
}
