package geom

// Plumbline reports whether point p lies inside the area bounded by the
// given segments, using the classic "plumbline" (ray casting) technique
// referenced in Section 5.2 of the paper: count how many segments a
// vertical ray from p downward (equivalently, upward) crosses; an odd
// count means inside. The segment set must form the boundary of a
// well-formed region (every cycle closed); points exactly on the
// boundary are reported as inside.
func Plumbline(p Point, segs []Segment) bool {
	inside := false
	for _, s := range segs {
		on, crosses := PlumbStep(p, s)
		if on {
			return true // boundary counts as inside (regions are closed sets)
		}
		if crosses {
			inside = !inside
		}
	}
	return inside
}

// PlumbStep is one boundary segment's part in the plumbline test, for
// callers that produce the segments one at a time instead of collecting
// them: on reports p lying on s (which decides the test: inside), and
// otherwise crosses reports that the downward ray from p crosses s.
func PlumbStep(p Point, s Segment) (on, crosses bool) {
	if s.Contains(p) {
		return true, false
	}
	return false, crossesBelow(p, s)
}

// crossesBelow reports whether segment s crosses the vertical ray going
// straight down from p. Endpoint grazing is handled with the standard
// half-open rule: a segment covers the half-open x-interval
// [min(x), max(x)) of its endpoints, so shared vertices are counted
// exactly once.
func crossesBelow(p Point, s Segment) bool {
	a, b := s.Left, s.Right
	//molint:ignore float-eq the half-open [min x, max x) rule needs exact coordinate classification so shared vertices count exactly once
	if a.X == b.X {
		return false // vertical segments never cross a vertical ray properly
	}
	if !(min(a.X, b.X) <= p.X && p.X < max(a.X, b.X)) {
		return false
	}
	// y-coordinate of the segment at x = p.X.
	t := (p.X - a.X) / (b.X - a.X)
	y := a.Y + t*(b.Y-a.Y)
	return y < p.Y
}

// PlumblineCount returns the number of boundary segments strictly below
// point p that a downward vertical ray crosses. It exposes the raw
// count for tests and for callers that need the crossing parity and
// boundary cases separately: onBoundary is true if p lies on a segment.
func PlumblineCount(p Point, segs []Segment) (count int, onBoundary bool) {
	for _, s := range segs {
		if s.Contains(p) {
			onBoundary = true
		}
		if crossesBelow(p, s) {
			count++
		}
	}
	return count, onBoundary
}
