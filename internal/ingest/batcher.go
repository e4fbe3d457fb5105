package ingest

import (
	"sync"
	"time"
)

// batcher buffers admitted observations per object and drains an
// object's run when its buffer reaches flushSize or its oldest
// observation has waited maxAge. One batcher operation (an admission, a
// ticker pass, a flush, a quiesce) concatenates every run it drains, in
// admission order, and hands the lot to the apply sink in one call, so
// whatever the sink does per call — the store lock, the index insert —
// it does once per operation, not once per object. The queue is bounded by
// maxQueued observations across all objects; admission past the bound
// fails with ErrBackpressure before anything is logged or buffered.
//
// Admission runs the WAL append under the batcher lock, so the WAL's
// sequence order is exactly the order observations enter the buffers —
// replay therefore reproduces the same per-object observation order the
// live appender saw, and with it the same drop/merge decisions.
type batcher struct {
	mu        sync.Mutex
	bufs      map[string]*objBuf  // moguard: guarded by mu
	order     []string            // moguard: guarded by mu // live buffers, oldest-admission first
	queued    int                 // moguard: guarded by mu
	closed    bool                // moguard: guarded by mu
	flushSize int                 // moguard: immutable
	maxQueued int                 // moguard: immutable
	maxAge    time.Duration       // moguard: immutable
	apply     func([]Observation) // moguard: immutable
	// afterFlush runs once per batcher operation that drained at least
	// one buffer, right after its apply and still under the lock — the
	// epoch-publication hook, so one admission or ticker pass that drains
	// many objects publishes one epoch, not one per object. Takes the
	// store lock inside (lock order batcher → store). Nil-safe.
	afterFlush func() // moguard: immutable

	done chan struct{} // moguard: immutable
	wg   sync.WaitGroup
}

type objBuf struct {
	obs   []Observation
	first time.Time // admission time of the oldest buffered observation
}

func newBatcher(flushSize, maxQueued int, maxAge time.Duration, apply func([]Observation), afterFlush func()) *batcher {
	b := &batcher{
		bufs:       make(map[string]*objBuf),
		flushSize:  flushSize,
		maxQueued:  maxQueued,
		maxAge:     maxAge,
		apply:      apply,
		afterFlush: afterFlush,
		done:       make(chan struct{}),
	}
	interval := max(maxAge/4, time.Millisecond)
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-b.done:
				return
			case <-tick.C:
				b.flushAged()
			}
		}
	}()
	return b
}

// enqueue admits one batch: bound check, WAL append (log), then
// buffering, all under the lock so acknowledged order equals log order.
// Objects whose buffers reach flushSize are flushed before returning,
// still under the lock — the size trigger is synchronous, only the age
// trigger rides the ticker.
func (b *batcher) enqueue(batch []Observation, log func([]Observation) (uint64, error)) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, ErrClosed
	}
	if b.queued+len(batch) > b.maxQueued {
		return 0, ErrBackpressure
	}
	seq, err := log(batch)
	if err != nil {
		return 0, err
	}
	now := time.Now()
	for _, o := range batch {
		buf := b.bufs[o.ObjectID]
		if buf == nil {
			buf = &objBuf{first: now}
			b.bufs[o.ObjectID] = buf
			b.order = append(b.order, o.ObjectID)
		}
		buf.obs = append(buf.obs, o)
		b.queued++
	}
	var run []Observation
	for _, o := range batch {
		if buf := b.bufs[o.ObjectID]; buf != nil && len(buf.obs) >= b.flushSize {
			run = b.takeLocked(run, o.ObjectID, buf)
		}
	}
	b.drainLocked(run)
	return seq, nil
}

// takeLocked removes one object's buffer, releases its queue share and
// appends its run to run. Caller holds b.mu.
func (b *batcher) takeLocked(run []Observation, id string, buf *objBuf) []Observation {
	delete(b.bufs, id)
	b.queued -= len(buf.obs)
	return append(run, buf.obs...)
}

// drainLocked ends a batcher operation: the runs it took go to the
// apply sink in one call, then the epoch-publication hook fires. Caller
// holds b.mu.
func (b *batcher) drainLocked(run []Observation) {
	if len(run) == 0 {
		return
	}
	b.apply(run)
	if b.afterFlush != nil {
		b.afterFlush()
	}
}

// flushAged flushes every buffer whose oldest observation has waited at
// least maxAge.
func (b *batcher) flushAged() {
	cutoff := time.Now().Add(-b.maxAge)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drainOrderedLocked(func(buf *objBuf) bool { return !buf.first.After(cutoff) })
}

// flushAll synchronously drains every buffer (also used for the final
// drain after close).
func (b *batcher) flushAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drainOrderedLocked(func(*objBuf) bool { return true })
}

// drainOrderedLocked drains the buffers pred selects, in admission
// order, compacting the order list. Caller holds b.mu.
func (b *batcher) drainOrderedLocked(pred func(*objBuf) bool) {
	remaining := b.order[:0]
	seen := make(map[string]bool, len(b.order))
	var run []Observation
	for _, id := range b.order {
		if seen[id] {
			continue // duplicate entry from a size-flush/re-admit cycle
		}
		seen[id] = true
		buf := b.bufs[id]
		if buf == nil {
			continue // already flushed by the size trigger
		}
		if pred(buf) {
			run = b.takeLocked(run, id, buf)
		} else {
			remaining = append(remaining, id)
		}
	}
	b.order = remaining
	b.drainLocked(run)
}

// quiesce drains every buffer and then runs f, all under the lock, so
// no admission (and therefore no WAL append) can interleave: f observes
// a store that reflects exactly the batches logged so far. Checkpoints
// run under it — the snapshot's state and the WAL sequence it is
// stamped with cannot drift apart. f must not re-enter the batcher.
func (b *batcher) quiesce(f func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drainOrderedLocked(func(*objBuf) bool { return true })
	f()
}

// close stops the ticker goroutine and drains the remaining buffers.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	close(b.done)
	b.wg.Wait()
	b.flushAll()
}

// depth returns the number of buffered observations.
func (b *batcher) depth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queued
}
