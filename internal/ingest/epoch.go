package ingest

import (
	"errors"

	"movingdb/internal/geom"
	"movingdb/internal/index"
	"movingdb/internal/mapping"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/storage"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// Epoch is one published, immutable snapshot of the live store: the
// sealed per-object unit arrays plus the matching index view, stamped
// with a sequence number. Queries pin an epoch once and read it for
// their whole lifetime with no locks at all — flushes build the *next*
// epoch behind the scenes and publish it atomically, so a reader's view
// never moves and a writer never waits for readers (nor readers for
// writers). Because every query operator is deterministic, any result
// computed against an epoch is a pure function of (query, epoch
// sequence) — which is exactly what makes the sequence a sound
// result-cache key: a cached value can never go stale within its epoch,
// and epoch advance invalidates by key mismatch, for free.
//
// Retirement is garbage collection: an old epoch stays alive exactly as
// long as some in-flight query or cache reference pins it, then the
// shared prefixes (which the next epoch re-uses) survive and only the
// per-epoch view headers are collected.
type Epoch struct {
	seq  uint64
	ids  map[string]int // frozen: never mutated after publish
	objs []*objView     // frozen: slots never reassigned after publish
	idx  index.Snapshot
}

// objView is one object's sealed state inside an epoch, n units long
// (n = len(starts); 0 = no units yet). The unit array is captured
// copy-on-write: prefix aliases the live array's elements [0, n-1),
// which the appender never touches again (it only rewrites the final
// unit in place — re-opening the closed tail, merging a continuation —
// and appends past it), and tail is a value copy of element n-1, the
// only slot that can still change. Readers therefore must go through
// unit(i), never through a raw slice. starts aliases all n entries of
// the live starts column, the tail's included: no rewrite changes a
// unit's start.
type objView struct {
	id     string
	starts []temporal.Instant // immutable alias: live Starts[0 : n]
	prefix []units.UPoint     // immutable alias: live units[0 : n-1]
	tail   units.UPoint       // copy of live units[n-1] at capture
	seen   bool
	last   moving.Sample
}

// viewOf seals an object's current state.
func viewOf(o *storage.Track) *objView {
	n := len(o.Units)
	v := &objView{id: o.ID, starts: o.Starts[:n:n], seen: o.Seen, last: o.Last}
	if n > 0 {
		v.prefix = o.Units[: n-1 : n-1]
		v.tail = o.Units[n-1]
	}
	return v
}

// unit returns the i-th unit of the sealed array in place. Both places
// it can live are immutable after capture: the prefix element, or for
// i = n-1 the tail copy, never the alias.
func (v *objView) unit(i int) *units.UPoint {
	if i == len(v.prefix) {
		return &v.tail
	}
	return &v.prefix[i]
}

// unitAt finds the unit whose interval contains t (§5.1): a binary
// search of the starts column for the last unit i starting at or before
// t, then at most two units read. The units are ordered and disjoint,
// so no unit after i can contain t, and none before i either — except
// when t is i's own start and i is left-open: then t can still be the
// closed end of unit i-1, a degenerate [t, t] or a predecessor closed at
// t. Only the unit found is copied out.
func (v *objView) unitAt(t temporal.Instant) (units.UPoint, bool) {
	lo, hi := 0, len(v.starts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.starts[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo - 1
	if i < 0 {
		return units.UPoint{}, false
	}
	if u := v.unit(i); u.Iv.Contains(t) {
		return *u, true
	}
	if i > 0 && t == v.starts[i] {
		if u := v.unit(i - 1); u.Iv.Contains(t) {
			return *u, true
		}
	}
	return units.UPoint{}, false
}

// Frozen seals a fixed set of objects (parallel slices) into an epoch
// that no pipeline will ever advance — what a read-only server pins for
// its whole life. It is a store's opening publish, stamped seq 0: the
// sequences a pipeline publishes start at 1, so 0 names "the data never
// changed" in X-MO-Epoch, cache keys and ETags.
func Frozen(ids []string, objects []moving.MPoint) (*Epoch, error) {
	if len(ids) != len(objects) {
		return nil, errors.New("ingest: ids and objects length mismatch")
	}
	st, err := newStore(seedHistory(ids, objects), obs.New(0))
	if err != nil {
		return nil, err
	}
	ep, _ := st.publish(nil)
	ep.seq = 0
	return ep, nil
}

// Seq returns the epoch's sequence number — the value served in the
// X-MO-Epoch header and embedded in cache keys and ETags.
func (e *Epoch) Seq() uint64 { return e.seq }

// Objects returns the number of tracked objects in the epoch.
func (e *Epoch) Objects() int { return len(e.objs) }

// Window reports the ids of objects inside rect at some instant of iv,
// in ascending registration order, computed without taking any lock:
// candidates are chunks from the pinned index snapshot, and refinement
// walks a candidate chunk's units in the sealed view, stopping at the
// first that is inside. Dedup and ordering use a dense bitset over
// object slots (slot index IS registration order), so the hot read path
// does one bounded allocation and no sort.
func (e *Epoch) Window(rect geom.Rect, iv temporal.Interval) []string {
	q := geom.Cube{Rect: rect, MinT: float64(iv.Start), MaxT: float64(iv.End)}
	ids, _ := e.idx.Search(q, nil)
	seen := make([]bool, len(e.objs))
	hits := 0
	for _, id := range ids {
		oi, c := int(id>>32), int(id&0xffffffff)
		if oi >= len(e.objs) || seen[oi] {
			continue
		}
		// The snapshot was captured with the views, so chunk c is this
		// view's; an open chunk ends at the view's last unit.
		v := e.objs[oi]
		for i, n := c*chunkUnits, min((c+1)*chunkUnits, len(v.starts)); i < n; i++ {
			if index.UPointInWindow(*v.unit(i), rect, iv) {
				seen[oi] = true
				hits++
				break
			}
		}
	}
	out := make([]string, 0, hits)
	for oi, hit := range seen {
		if hit {
			out = append(out, e.objs[oi].id)
		}
	}
	return out
}

// AtInstant returns the position of every object defined at t, in
// registration order, lock-free against the sealed views.
func (e *Epoch) AtInstant(t temporal.Instant) []Position {
	return e.AppendAtInstant(make([]Position, 0, len(e.objs)), t)
}

// AppendAtInstant is AtInstant appending to dst, so a caller can reuse
// one buffer across queries.
func (e *Epoch) AppendAtInstant(dst []Position, t temporal.Instant) []Position {
	for _, v := range e.objs {
		if u, ok := v.unitAt(t); ok {
			p := u.Eval(t)
			dst = append(dst, Position{ID: v.id, X: p.X, Y: p.Y})
		}
	}
	return dst
}

// Summaries lists the tracked objects in registration order. An object
// that has a single observation and no unit yet reports zero units with
// From == To == its observation time.
func (e *Epoch) Summaries() []ObjectSummary {
	out := make([]ObjectSummary, 0, len(e.objs))
	for _, v := range e.objs {
		sum := ObjectSummary{ID: v.id, Units: len(v.starts)}
		if len(v.starts) > 0 {
			sum.From = float64(v.starts[0])
			sum.To = float64(v.tail.Iv.End)
		} else if v.seen {
			sum.From, sum.To = float64(v.last.T), float64(v.last.T)
		}
		out = append(out, sum)
	}
	return out
}

// Snapshot materialises a detached copy of one object's mapping as of
// the epoch.
func (e *Epoch) Snapshot(id string) (moving.MPoint, bool) {
	oi, ok := e.ids[id]
	if !ok {
		return moving.MPoint{}, false
	}
	v := e.objs[oi]
	us := make([]units.UPoint, 0, len(v.starts))
	us = append(us, v.prefix...)
	if len(v.starts) > 0 {
		us = append(us, v.tail)
	}
	return moving.MPoint{M: mapping.FromOrdered(us)}, true
}
