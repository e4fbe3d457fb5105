package index

import (
	"math"

	"movingdb/internal/geom"
)

// Best-first nearest-neighbour traversal (Hjaltason & Samet style) over
// a Snapshot: one priority queue holds the nodes of every rung (ranked
// by the minimum possible distance from the query point to their cube),
// entry candidates (ranked the same way by their entry cube) and refined
// objects (ranked by exact distance). Popping in distance order
// guarantees that when a refined object surfaces, nothing still queued
// can beat it — every queued item's rank is a lower bound on anything
// it could produce.
//
// The traversal is time-aware: the query asks for neighbours at one
// instant t, so nodes and entries whose cube time range excludes t are
// pruned outright. That prune is complete because every entry the
// ingest store indexes is one chunk of an object's units, and the
// chunk's cube, sealed or open, in a folded rung or the epoch's extra
// rung, contains every unit of the chunk (see Store.Apply). For any object
// defined at t, the chunk holding its unit at t therefore has an entry
// whose time range contains t and whose spatial rect contains the
// object's position at t — so its minimum distance is a sound lower
// bound.

// Neighbor is one nearest-neighbour result: the caller's refinement key
// (for the epoch read path, the object slot) and the exact distance
// from the query point.
type Neighbor struct {
	Key  int64
	Dist float64
}

// Queue item kinds, ordered so that on a distance tie nodes and entries
// pop before refined results: every object at that distance is refined
// before any is emitted, so tied results come out by key. (Refined
// first let an object whose entry cube contained the query point be
// emitted ahead of a lower key whose entry still waited at the tied
// distance.)
const (
	knnNode uint8 = iota
	knnEntry
	knnRefined
)

type knnItem struct {
	dist float64
	kind uint8
	id   int64 // node index, entry payload id, or refinement key
}

// knnHeap is a plain binary min-heap over (dist, kind, id) — a
// deterministic total order, so traversal and tie-breaking are pure
// functions of the snapshot.
type knnHeap []knnItem

func (h knnHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.id < b.id
}

func (h *knnHeap) push(it knnItem) {
	// Growth is amortized by the pre-sized arena Nearest allocates; push
	// itself must stay an append to keep the heap a plain slice.
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *knnHeap) pop() knnItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// minDistRect returns the minimum Euclidean distance from (x, y) to any
// point of r — zero when the point is inside.
func minDistRect(x, y float64, r geom.Rect) float64 {
	dx := max(r.MinX-x, x-r.MaxX, 0)
	dy := max(r.MinY-y, y-r.MaxY, 0)
	return math.Hypot(dx, dy)
}

// cubeCoversT reports whether t lies in the cube's time range.
func cubeCoversT(c geom.Cube, t float64) bool {
	return c.MinT <= t && t <= c.MaxT
}

// Nearest finds the k entries-turned-objects closest to (x, y) at
// instant t, at most maxDist away. k <= 0 means no count bound (a pure
// radius query, still sorted by distance); maxDist < 0 means no radius
// bound. refine maps an entry payload id to the caller's dedup key and
// the exact distance at t; ok = false marks the key as unable to
// contribute (stale entry, object undefined at t) and the traversal
// never asks about it again. Results come back in ascending (distance,
// key) order; scanned counts visited tree nodes, for the scan-vs-index
// ablation. Deterministic: pure function of the
// snapshot and the arguments (ties broken by key).
func (s Snapshot) Nearest(x, y, t float64, k int, maxDist float64, refine func(id int64) (key int64, dist float64, ok bool)) ([]Neighbor, int) {
	if maxDist < 0 {
		maxDist = math.Inf(1)
	}
	// One pre-sized arena absorbs the frontier's churn; 64 slots cover a
	// typical best-first frontier so push almost never grows the array.
	h := make(knnHeap, 0, 64)
	// Every rung root seeds the frontier; a node id carries its rung in
	// the high half (rung<<32 | node). Time-ordered ingest makes each
	// rung a time slab, so most roots fail cubeCoversT right here. (A
	// rung is never empty: Fold builds none from nothing, WithRung drops
	// an empty one.)
	scanned := 0
	for ri, r := range s.rungs {
		if nd := &r.nodes[r.root]; cubeCoversT(nd.cube, t) {
			if d := minDistRect(x, y, nd.cube.Rect); d <= maxDist {
				h.push(knnItem{dist: d, kind: knnNode, id: int64(ri)<<32 | int64(r.root)})
			}
		}
	}
	// Refinement keys are sparse int64s from an unbounded domain: a map is
	// the right dedup structure. Sized for 16 keys up front: a k = 10 query
	// over chunk cubes refines a few more objects than it returns, and
	// growing from the default size cost one more allocation than this.
	seen := make(map[int64]bool, 16)
	outCap := k
	if outCap <= 0 {
		outCap = 16 // radius query: no count bound, start small
	}
	out := make([]Neighbor, 0, outCap)
	for len(h) > 0 {
		it := h.pop()
		if it.dist > maxDist {
			break
		}
		switch it.kind {
		case knnRefined:
			out = append(out, Neighbor{Key: it.id, Dist: it.dist})
			if k > 0 && len(out) >= k {
				return out, scanned
			}
		case knnEntry:
			key, d, ok := refine(it.id)
			if seen[key] {
				continue
			}
			seen[key] = true
			if ok && d <= maxDist {
				h.push(knnItem{dist: d, kind: knnRefined, id: key})
			}
		default: // knnNode
			scanned++
			r := s.rungs[it.id>>32]
			nd := &r.nodes[it.id&0xffffffff]
			if nd.leaf {
				for i := nd.lo; i < nd.hi; i++ {
					e := &r.entries[i]
					if !cubeCoversT(e.Cube, t) {
						continue
					}
					if d := minDistRect(x, y, e.Cube.Rect); d <= maxDist {
						h.push(knnItem{dist: d, kind: knnEntry, id: e.ID})
					}
				}
				continue
			}
			for c := nd.lo; c < nd.hi; c++ {
				child := &r.nodes[c]
				if !cubeCoversT(child.cube, t) {
					continue
				}
				if d := minDistRect(x, y, child.cube.Rect); d <= maxDist {
					h.push(knnItem{dist: d, kind: knnNode, id: it.id&^0xffffffff | int64(c)})
				}
			}
		}
	}
	// Emission order is already ascending (dist, key): refined items pop
	// from the heap in exactly that order.
	return out, scanned
}
