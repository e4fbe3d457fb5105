package ingest

import (
	"math"
	"slices"

	"movingdb/internal/geom"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
)

// NearbyResult is one /v1/nearby hit: an object's exact position at the
// queried instant and its Euclidean distance from the query point.
type NearbyResult struct {
	ID   string  `json:"id"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Dist float64 `json:"dist"`
}

// Nearest returns the objects closest to (x, y) at instant t, nearest
// first, computed lock-free against the epoch's pinned index snapshot
// and sealed unit views (the getNearbyObjects operation of a moving
// objects database, answered best-first instead of by scan). k <= 0
// means no count bound, radius < 0 means no distance bound; k-NN and
// range queries are the two degenerate corners of the same traversal.
// Ties in distance break by registration order, so the result is a pure
// function of (query, epoch) — exactly what the result cache needs.
func (e *Epoch) Nearest(x, y float64, t temporal.Instant, k int, radius float64) []NearbyResult {
	refine := func(id int64) (int64, float64, bool) {
		oi := int(id >> 32)
		key := int64(oi)
		if oi >= len(e.objs) {
			// Entry for an object registered after this epoch sealed.
			return key, 0, false
		}
		u, ok := e.objs[oi].unitAt(t)
		if !ok {
			return key, 0, false
		}
		p := u.Eval(t)
		return key, math.Hypot(p.X-x, p.Y-y), true
	}
	nbs, _ := e.idx.Nearest(x, y, float64(t), k, radius, refine)
	out := make([]NearbyResult, 0, len(nbs))
	for _, nb := range nbs {
		// Re-deriving the position costs one binary search per hit and
		// keeps the traversal allocation-free (the per-query position map
		// this replaces allocated per candidate, not per hit).
		u, _ := e.objs[int(nb.Key)].unitAt(t)
		p := u.Eval(t)
		out = append(out, NearbyResult{ID: e.objs[int(nb.Key)].id, X: p.X, Y: p.Y, Dist: nb.Dist})
	}
	return out
}

// CurrentInside returns the ids of objects whose latest observed
// position lies in rect, ascending — the live registry seeds an
// appears-subscription's member set with it.
func (e *Epoch) CurrentInside(rect geom.Rect) []string {
	var out []string
	for _, v := range e.objs {
		if v.seen && rect.ContainsPoint(v.last.P) {
			out = append(out, v.id)
		}
	}
	slices.Sort(out)
	return out
}

// Current returns the object's latest observed sample as of the epoch —
// the position standing-query predicates evaluate against.
func (e *Epoch) Current(id string) (moving.Sample, bool) {
	oi, ok := e.ids[id]
	if !ok || oi >= len(e.objs) {
		return moving.Sample{}, false
	}
	v := e.objs[oi]
	if !v.seen {
		return moving.Sample{}, false
	}
	return v.last, true
}
