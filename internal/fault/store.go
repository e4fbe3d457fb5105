package fault

import (
	"fmt"
	"io"
	"time"

	"movingdb/internal/storage"
)

// Store wraps a storage.PageStore with failpoint injection on its I/O
// operations, satisfying the ingest write path's page-I/O contract
// (ingest.PageIO, matched structurally). Sites are "<name>.put",
// "<name>.get" and "<name>.compact"; Truncate stays infallible — the
// write path relies on it to discard torn bytes, so the recovery tool
// itself is not a failure surface.
type Store struct {
	in   *Injector
	name string
	ps   *storage.PageStore
}

// NewStore wraps ps; failpoint sites are prefixed with name.
func NewStore(in *Injector, name string, ps *storage.PageStore) *Store {
	return &Store{in: in, name: name, ps: ps}
}

// Put stores data as a new large object, subject to the "<name>.put"
// failpoint: error modes fail with nothing written, torn mode lands a
// prefix of the bytes (padded to whole pages, as a real device would
// leave a partially written run) and then fails, latency sleeps and
// proceeds.
func (s *Store) Put(data []byte) (storage.LOBRef, error) {
	if act, ok := s.in.eval(s.name + ".put"); ok {
		switch act.mode {
		case ModeLatency:
			// Injected latency must really elapse; which calls sleep is
			// decided by the seeded injector, so outcomes stay deterministic.
			time.Sleep(act.delay)
		case ModeTorn:
			keep := int(float64(len(data)) * act.keepFraction)
			if keep > 0 {
				s.ps.Put(data[:keep])
			}
			return storage.LOBRef{}, fmt.Errorf("torn write (%d of %d bytes): %w", keep, len(data), act.err)
		default:
			return storage.LOBRef{}, act.err
		}
	}
	return s.ps.Put(data), nil
}

// Get reads a large object back, subject to the "<name>.get"
// failpoint (torn degrades to error on the read path).
func (s *Store) Get(ref storage.LOBRef) ([]byte, error) {
	if act, ok := s.in.eval(s.name + ".get"); ok {
		if act.mode == ModeLatency {
			// Injected latency must really elapse; which calls sleep is
			// decided by the seeded injector, so outcomes stay deterministic.
			time.Sleep(act.delay)
		} else {
			return nil, act.err
		}
	}
	return s.ps.Get(ref)
}

// NumPages reports the allocated page count.
func (s *Store) NumPages() int { return s.ps.NumPages() }

// Truncate drops every page from n on (infallible by contract).
func (s *Store) Truncate(n int) { s.ps.Truncate(n) }

// Compact drops the first n pages, subject to the "<name>.compact"
// failpoint. Compaction is atomic at the medium level (the
// rename idiom), so the only injectable failure is refusal: a tripped
// point leaves the store untouched and returns the error.
func (s *Store) Compact(n int) error {
	if act, ok := s.in.eval(s.name + ".compact"); ok {
		if act.mode == ModeLatency {
			// Injected latency must really elapse; which calls sleep is
			// decided by the seeded injector, so outcomes stay deterministic.
			time.Sleep(act.delay)
		} else {
			return act.err
		}
	}
	s.ps.Compact(n)
	return nil
}

// Writer wraps an io.Writer and fails once FailAfter bytes have been
// written — the serialisation-side torn write, for exercising WriteTo
// error paths without a failpoint table.
type Writer struct {
	W         io.Writer
	FailAfter int
	written   int
}

// Write forwards to the wrapped writer until the budget is spent, then
// short-writes and fails.
func (w *Writer) Write(p []byte) (int, error) {
	if w.written >= w.FailAfter {
		return 0, fmt.Errorf("%w: writer failed after %d bytes", ErrInjected, w.written)
	}
	if w.written+len(p) > w.FailAfter {
		n, _ := w.W.Write(p[:w.FailAfter-w.written])
		w.written += n
		return n, fmt.Errorf("%w: writer failed after %d bytes", ErrInjected, w.written)
	}
	n, err := w.W.Write(p)
	w.written += n
	return n, err
}
