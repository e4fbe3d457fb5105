package units

import (
	"slices"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
)

// UPointInsideURegion implements the unit-pair kernel
// upoint_uregion_inside of Section 5.2: given a upoint unit and a
// uregion unit it returns boolean units describing when the moving point
// is inside the moving region, over the intersection of the two unit
// intervals. The moving point is a line in 3D space that stabs the
// moving segments (trapeziums in 3D) of the region unit; with each stab
// the point alternates between inside and outside.
//
// Crossing instants are found as roots of the quadratic
// cross(e(t)−s(t), p(t)−s(t)) = 0 restricted to the segment's parameter
// range; the initial state is decided with the plumbline test
// (Section 5.2). Tangential grazings — the point touching the boundary
// without crossing (a double root) — do not flip the state. Following
// the paper, true intervals are emitted closed and false intervals open,
// because the boundary belongs to the region.
//
// The cost is O(s) for the stab candidates plus O(k log k) for sorting
// the k crossings, matching the complexity stated in the paper. The
// moving segments are walked in place and the boolean units are appended
// to dst, so a caller that reuses dst pays no allocation per unit pair.
func UPointInsideURegion(dst []UBool, up UPoint, ur URegion) []UBool {
	iv, ok := up.Iv.Intersect(ur.Iv)
	if !ok {
		return dst
	}
	// Bounding cube rejection: both cubes are computed here from the
	// vertices, O(s) arithmetic and no allocation.
	if !up.Cube().Intersects(ur.Cube()) {
		return append(dst, UBool{Iv: iv, V: false})
	}

	// A point unit rarely stabs more than a few boundary segments; more
	// crossings than the buffer holds spill to the heap. The rings are
	// walked in place, in MSegCursor's order.
	var buf [8]stab
	crossings := buf[:0]
	for f := range ur.Faces {
		face := &ur.Faces[f]
		for c := -1; c < len(face.Holes); c++ {
			ring := face.ring(c)
			for k, from := range ring {
				to := ring[0]
				if k+1 < len(ring) {
					to = ring[k+1]
				}
				stabs, n := stabTimes(up.M, MSeg{S: from, E: to}, iv)
				crossings = append(crossings, stabs[:n]...)
			}
		}
	}
	return insideFromStabs(dst, up.M, ur, iv, crossings)
}

// insideFromStabs is the rest of UPointInsideURegion once the stabs of
// the point p on the segments of ur over iv are collected: it orders
// and merges them, decides the initial state by the plumbline and
// appends the alternating boolean units to dst.
func insideFromStabs(dst []UBool, p MPoint, ur URegion, iv temporal.Interval, crossings []stab) []UBool {
	slices.SortFunc(crossings, func(a, b stab) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		}
		return 0
	})
	// Merge coincident crossing instants: an even number of genuine
	// crossings at the same instant (e.g. passing through a vertex
	// shared by two segments) cancels to a touch, an odd number to a
	// single crossing.
	merged := crossings[:0]
	for i := 0; i < len(crossings); {
		j := i
		flips := 0
		//molint:ignore float-eq crossings at a shared vertex are computed from the same endpoint and coincide exactly; tolerant merging would cancel distinct near-crossings
		for j < len(crossings) && crossings[j].t == crossings[i].t {
			if !crossings[j].touch {
				flips++
			}
			j++
		}
		merged = append(merged, stab{t: crossings[i].t, touch: flips%2 == 0})
		i = j
	}
	crossings = merged

	// Initial state: sample strictly before the first crossing (or the
	// interval midpoint when there are none) and apply the plumbline.
	sampleAt := func(lo, hi float64) temporal.Instant { return temporal.Instant((lo + hi) / 2) }
	first := float64(iv.End)
	if len(crossings) > 0 {
		first = crossings[0].t
	}
	var state bool
	if iv.IsDegenerate() {
		state = pointInRegionAt(p, ur, iv.Start)
	} else if first > float64(iv.Start) {
		state = pointInRegionAt(p, ur, sampleAt(float64(iv.Start), first))
	} else {
		// A crossing exactly at the interval start: state right after it.
		next := float64(iv.End)
		if len(crossings) > 1 {
			next = crossings[1].t
		}
		state = pointInRegionAt(p, ur, sampleAt(first, next))
		// Drop that crossing; it does not partition the interior.
		crossings = crossings[1:]
	}

	// Assemble alternating boolean units. True pieces are closed, false
	// pieces open; touches inside a false piece contribute degenerate
	// true instants.
	cur := iv.Start
	curLC := iv.LC
	emit := func(end temporal.Instant, endRC bool, v bool) {
		lc, rc := curLC, endRC
		if v {
			// Closure toward crossing instants: the point is on the
			// boundary there, which is inside the region.
			if cur != iv.Start {
				lc = true
			}
			if end != iv.End {
				rc = true
			}
		} else {
			if cur != iv.Start {
				lc = false
			}
			if end != iv.End {
				rc = false
			}
		}
		if cur == end && !(lc && rc) {
			return
		}
		if cur > end {
			return
		}
		dst = append(dst, UBool{Iv: temporal.Interval{Start: cur, End: end, LC: lc, RC: rc}, V: v})
	}
	for _, c := range crossings {
		t := temporal.Instant(c.t)
		if t <= cur || !iv.Contains(t) {
			// Out-of-interval or duplicate; touches at the boundary of
			// the overall interval need no piece of their own.
			continue
		}
		if c.touch {
			if !state {
				// Outside before and after, but on the boundary at t.
				emit(t, false, false)
				cur, curLC = t, true
				emit(t, true, true)
				cur, curLC = t, false
			}
			continue
		}
		emit(t, false, state)
		cur, curLC = t, false
		state = !state
	}
	emit(iv.End, iv.RC, state)
	return dst
}

// UPointSometimesInsideURegion reports whether the moving point is
// inside the moving region at some instant common to the two units:
// whether UPointInsideURegion returns a true unit. It answers that
// without sorting, merging or emitting a unit, from the kernel's own
// steps. The cube rejection is the kernel's. A degenerate intersection
// is the plumbline at its instant, which the kernel samples as is (the
// midpoint formula overflows for an instant beyond half the largest
// float). Otherwise the first stab after the start of the intersection
// answers true: the point is on the boundary there, which belongs to
// the region, and the kernel emits a true unit at or before that stab
// whatever the state it starts in. Without one, the state the kernel
// samples at the midpoint holds throughout (a stab at the start does
// not partition the interior). The stab loop walks the rings itself, in
// MSegCursor's order, with no cursor state between segments.
func UPointSometimesInsideURegion(up UPoint, ur URegion) bool {
	iv, ok := up.Iv.Intersect(ur.Iv)
	if !ok || !up.Cube().Intersects(ur.Cube()) {
		return false
	}
	if iv.IsDegenerate() {
		return pointInRegionAt(up.M, ur, iv.Start)
	}
	for f := range ur.Faces {
		face := &ur.Faces[f]
		for c := -1; c < len(face.Holes); c++ {
			ring := face.ring(c)
			for k, from := range ring {
				to := ring[0]
				if k+1 < len(ring) {
					to = ring[k+1]
				}
				stabs, n := stabTimes(up.M, MSeg{S: from, E: to}, iv)
				for _, s := range stabs[:n] {
					if s.t > float64(iv.Start) {
						return true
					}
				}
			}
		}
	}
	return pointInRegionAt(up.M, ur, temporal.Instant((float64(iv.Start)+float64(iv.End))/2))
}

// stab is one instant at which the moving point meets the region
// boundary.
type stab struct {
	t     float64
	touch bool // tangential: the inside/outside state does not flip
}

// stabTimes returns the n ≤ 2 instants in iv at which the moving point p
// crosses (or touches) the moving segment g.
func stabTimes(p MPoint, g MSeg, iv temporal.Interval) (out [2]stab, n int) {
	// f(t) = cross(e(t)−s(t), p(t)−s(t)), a quadratic.
	dx0, dx1 := g.E.X0-g.S.X0, g.E.X1-g.S.X1
	dy0, dy1 := g.E.Y0-g.S.Y0, g.E.Y1-g.S.Y1
	wx0, wx1 := p.X0-g.S.X0, p.X1-g.S.X1
	wy0, wy1 := p.Y0-g.S.Y0, p.Y1-g.S.Y1
	a := dx1*wy1 - dy1*wx1
	b := dx0*wy1 + dx1*wy0 - dy0*wx1 - dy1*wx0
	c := dx0*wy0 - dy0*wx0
	roots, nr, all := QuadRoots(a, b, c)
	if all {
		// The point moves along the segment's supporting line; it is on
		// the segment for a whole sub-interval. This non-generic case is
		// handled conservatively as no crossings (state sampling decides
		// membership), acceptable because the boundary belongs to the
		// region on either side.
		return out, 0
	}
	//molint:ignore float-eq degree classification: QuadRoots already folded near-zero leading coefficients, so a surviving nonzero is structural
	touch := nr == 1 && a != 0 // double root: tangential
	for _, r := range roots[:nr] {
		t := temporal.Instant(r)
		if !iv.Contains(t) {
			continue
		}
		// The root is a supporting-line crossing; it stabs the segment
		// only if the point lies within the segment bounds at time t.
		sp, ok := g.EvalSeg(t)
		if !ok {
			continue // segment degenerate at t
		}
		if !sp.Contains(p.Eval(t)) {
			continue
		}
		out[n] = stab{t: r, touch: touch}
		n++
	}
	return out, n
}

// pointInRegionAt applies the plumbline test to decide whether the
// moving point is inside the moving region at instant t. It walks each
// ring of the unit once, face by face and the outer cycle before the
// holes (MSegCursor's order), evaluating every moving vertex once: the
// segment from a vertex to the next is the one MSeg.EvalSeg builds, a
// degenerate one is skipped, and the first segment the point lies on
// answers true.
func pointInRegionAt(p MPoint, ur URegion, t temporal.Instant) bool {
	pt := p.Eval(t)
	inside := false
	for f := range ur.Faces {
		face := &ur.Faces[f]
		for c := -1; c < len(face.Holes); c++ {
			ring := face.ring(c)
			if len(ring) == 0 {
				continue
			}
			first := ring[0].Eval(t)
			from := first
			for k := 1; k <= len(ring); k++ {
				to := first
				if k < len(ring) {
					to = ring[k].Eval(t)
				}
				s, ok := segmentBetween(from, to)
				from = to
				if !ok {
					continue
				}
				on, crosses := geom.PlumbStep(pt, s)
				if on {
					return true
				}
				if crosses {
					inside = !inside
				}
			}
		}
	}
	return inside
}
