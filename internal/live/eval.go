package live

import (
	"slices"
	"strings"

	"movingdb/internal/ingest"
	"movingdb/internal/moving"
)

// Evaluation of standing queries against one published epoch. Every
// function here is deterministic — a pure fold over the (epoch, dirty
// set) sequence — which is what makes the subsystem testable against a
// brute-force oracle and keeps event order reproducible. A clock read or
// a global rand draw here fails TestRegistryMatchesBruteForce and the
// simulator's replay tests (TestDeterminismWalErr,
// TestChaosMixedDeterministic).

// evaluate folds one publish into the subscription's edge-trigger
// state, emitting an event per flip, and reports whether the publish
// was a candidate for it. The dirty set is the filter: a predicate can
// only flip for an object whose movement rectangle (old position
// through new) meets the predicate's bound, so an id-bound form looks
// its subject up in the id-sorted dirty set and appears needs some
// dirty rectangle to meet its region. Publishes no newer than the seed
// epoch are history the seed already holds. Id-bound forms compare the
// subject's latest position against the remembered truth; appears
// diffs the dirty objects against the member set.
func (s *Subscription) evaluate(n notice) (cand bool, events, dropped int) {
	seq := n.ep.Seq()
	if seq <= s.seedSeq {
		return false, 0, 0
	}
	meets := func(d ingest.DirtyObject) bool { return s.bound.Intersects(d.Rect) }
	if s.pred.idBound() {
		i, ok := slices.BinarySearchFunc(n.dirty, s.pred.Object, func(d ingest.DirtyObject, id string) int {
			return strings.Compare(d.ID, id)
		})
		if !ok || !meets(n.dirty[i]) {
			return false, 0, 0
		}
	} else if !slices.ContainsFunc(n.dirty, meets) {
		return false, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return true, 0, 0
	}
	emit := func(edge, obj string, smp moving.Sample) {
		e := Event{
			Epoch:     seq,
			Edge:      edge,
			Object:    obj,
			T:         float64(smp.T),
			X:         smp.P.X,
			Y:         smp.P.Y,
			PubUnixNS: n.pubNS,
		}
		if s.pushLocked(e) {
			dropped++
		}
		events++
	}
	if s.pred.idBound() {
		smp, ok := n.ep.Current(s.pred.Object)
		in := ok && s.pred.holds(smp.P)
		if in != s.state {
			s.state = in
			if in {
				emit("enter", s.pred.Object, smp)
			} else {
				emit("leave", s.pred.Object, smp)
			}
		}
		return true, events, dropped
	}
	for _, d := range n.dirty {
		if !meets(d) {
			continue
		}
		smp, ok := n.ep.Current(d.ID)
		in := ok && s.pred.holds(smp.P)
		_, was := s.members[d.ID]
		switch {
		case in && !was:
			s.members[d.ID] = struct{}{}
			emit("enter", d.ID, smp)
		case !in && was:
			delete(s.members, d.ID)
			emit("leave", d.ID, smp)
		}
	}
	return true, events, dropped
}

// seed initialises the edge-trigger state from an epoch so a
// subscription does not fire for objects already satisfying the
// predicate at subscribe time — events are flips relative to the state
// when the subscription was created. For appears, holds is the region
// containment CurrentInside already tested.
func (s *Subscription) seed(ep *ingest.Epoch) {
	if ep == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pred.idBound() {
		smp, ok := ep.Current(s.pred.Object)
		s.state = ok && s.pred.holds(smp.P)
		return
	}
	for _, id := range ep.CurrentInside(s.bound) {
		s.members[id] = struct{}{}
	}
}

// mergeDirty unions two id-sorted dirty sets — the coalescing step when
// the notifier queue overflows. Movement rectangles union and the
// result stays id-sorted.
func mergeDirty(a, b []ingest.DirtyObject) []ingest.DirtyObject {
	out := make([]ingest.DirtyObject, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].ID < b[j].ID:
			out = append(out, a[i])
			i++
		case a[i].ID > b[j].ID:
			out = append(out, b[j])
			j++
		default:
			m := a[i]
			m.Rect = m.Rect.Union(b[j].Rect)
			out = append(out, m)
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
