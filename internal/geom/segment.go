package geom

import (
	"fmt"
	"slices"
)

// Segment is a line segment in canonical form: Left < Right in the
// lexicographic point order. It corresponds to the paper's carrier set
// Seg = {(u, v) | u, v ∈ Point, u < v}. Use NewSegment to construct a
// canonical segment from arbitrary endpoints.
type Segment struct {
	Left, Right Point
}

// NewSegment returns the canonical segment with endpoints p and q,
// swapping them if necessary. It returns an error if p == q, since
// degenerate segments are excluded from Seg.
func NewSegment(p, q Point) (Segment, error) {
	switch p.Cmp(q) {
	case -1:
		return Segment{Left: p, Right: q}, nil
	case 1:
		return Segment{Left: q, Right: p}, nil
	}
	// Rejection path only: the kernels test p == q before they build a segment.
	return Segment{}, fmt.Errorf("geom: degenerate segment at %v", p)
}

// MustSegment is like NewSegment but panics on a degenerate segment.
// It is intended for literals in tests and examples.
func MustSegment(p, q Point) Segment {
	s, err := NewSegment(p, q)
	if err != nil {
		panic(err)
	}
	return s
}

// Seg is shorthand for MustSegment(Pt(x1,y1), Pt(x2,y2)).
func Seg(x1, y1, x2, y2 float64) Segment {
	return MustSegment(Pt(x1, y1), Pt(x2, y2))
}

// Cmp orders segments lexicographically by (Left, Right). It induces
// the canonical storage order for segment sets.
func (s Segment) Cmp(t Segment) int {
	if c := s.Left.Cmp(t.Left); c != 0 {
		return c
	}
	return s.Right.Cmp(t.Right)
}

// Less reports whether s precedes t in the canonical segment order.
func (s Segment) Less(t Segment) bool { return s.Cmp(t) < 0 }

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return s.Left.Dist(s.Right) }

// Dir returns the direction vector Right − Left (not normalised).
func (s Segment) Dir() Point { return s.Right.Sub(s.Left) }

// Midpoint returns the midpoint of the segment.
func (s Segment) Midpoint() Point {
	return Point{(s.Left.X + s.Right.X) / 2, (s.Left.Y + s.Right.Y) / 2}
}

// String formats the segment as "(x1, y1)-(x2, y2)".
func (s Segment) String() string { return fmt.Sprintf("%v-%v", s.Left, s.Right) }

// BBox returns the axis-aligned bounding box of the segment.
func (s Segment) BBox() Rect {
	return Rect{
		MinX: s.Left.X, // canonical form guarantees Left.X <= Right.X
		MaxX: s.Right.X,
		MinY: min(s.Left.Y, s.Right.Y),
		MaxY: max(s.Left.Y, s.Right.Y),
	}
}

// Contains reports whether point p lies on the segment (endpoints
// included), up to Eps.
func (s Segment) Contains(p Point) bool {
	if Orient(s.Left, s.Right, p) != 0 {
		return false
	}
	// p is on the supporting line; check the parameter range.
	d := s.Dir()
	t := p.Sub(s.Left).Dot(d) / d.Dot(d)
	return t >= -Eps && t <= 1+Eps
}

// ContainsInterior reports whether p lies on the segment excluding its
// endpoints.
func (s Segment) ContainsInterior(p Point) bool {
	return s.Contains(p) && !ApproxEqPoint(p, s.Left) && !ApproxEqPoint(p, s.Right)
}

// Collinear reports whether s and t lie on the same infinite line, as
// required by the line data type definition (predicate "collinear").
func Collinear(s, t Segment) bool {
	return Orient(s.Left, s.Right, t.Left) == 0 && Orient(s.Left, s.Right, t.Right) == 0
}

// Meet reports whether s and t share a common endpoint (the paper's
// "meet" predicate).
func Meet(s, t Segment) bool {
	return s.Left == t.Left || s.Left == t.Right || s.Right == t.Left || s.Right == t.Right
}

// Touch reports whether an endpoint of one segment lies in the interior
// of the other (the paper's "touch" predicate).
func Touch(s, t Segment) bool {
	return t.ContainsInterior(s.Left) || t.ContainsInterior(s.Right) ||
		s.ContainsInterior(t.Left) || s.ContainsInterior(t.Right)
}

// PIntersect reports whether s and t properly intersect, i.e. cross in
// a point interior to both (the paper's "p-intersect" predicate).
func PIntersect(s, t Segment) bool {
	o1 := Orient(s.Left, s.Right, t.Left)
	o2 := Orient(s.Left, s.Right, t.Right)
	o3 := Orient(t.Left, t.Right, s.Left)
	o4 := Orient(t.Left, t.Right, s.Right)
	return o1*o2 < 0 && o3*o4 < 0
}

// Overlap reports whether s and t are collinear and share more than a
// single point. Overlapping collinear segments are forbidden inside a
// line value (they would not be a unique representation).
func Overlap(s, t Segment) bool {
	if !Collinear(s, t) {
		return false
	}
	// Project onto the dominant axis of s and compare parameter ranges.
	d := s.Dir()
	proj := func(p Point) float64 { return p.Sub(s.Left).Dot(d) }
	lo, hi := proj(t.Left), proj(t.Right)
	if lo > hi {
		lo, hi = hi, lo
	}
	slo, shi := 0.0, d.Dot(d)
	scale := Eps * max(1, shi)
	return lo < shi-scale && hi > slo+scale
}

// SegIntersection describes how two segments intersect.
type SegIntersection int

// The possible intersection kinds returned by Intersect.
const (
	IntersectNone    SegIntersection = iota // disjoint
	IntersectPoint                          // a single point (proper crossing, touch, or meet)
	IntersectOverlap                        // collinear with a shared sub-segment
)

// Intersect classifies the intersection of s and t and, for a single
// point intersection, returns that point.
func Intersect(s, t Segment) (SegIntersection, Point) {
	if Collinear(s, t) {
		if Overlap(s, t) {
			return IntersectOverlap, Point{}
		}
		// Collinear but not overlapping: they can still meet in an endpoint.
		switch {
		case s.Left == t.Right || s.Left == t.Left:
			return IntersectPoint, s.Left
		case s.Right == t.Left || s.Right == t.Right:
			return IntersectPoint, s.Right
		case t.Contains(s.Left):
			return IntersectPoint, s.Left
		case t.Contains(s.Right):
			return IntersectPoint, s.Right
		case s.Contains(t.Left):
			return IntersectPoint, t.Left
		}
		return IntersectNone, Point{}
	}
	d1, d2 := s.Dir(), t.Dir()
	den := d1.Cross(d2)
	if ApproxZero(den) {
		// Parallel, not collinear.
		return IntersectNone, Point{}
	}
	w := t.Left.Sub(s.Left)
	u := w.Cross(d2) / den // parameter on s
	v := w.Cross(d1) / den // parameter on t
	if u < -Eps || u > 1+Eps || v < -Eps || v > 1+Eps {
		return IntersectNone, Point{}
	}
	return IntersectPoint, s.Left.Add(d1.Scale(u))
}

// DistToPoint returns the Euclidean distance from the segment to point p.
func (s Segment) DistToPoint(p Point) float64 {
	d := s.Dir()
	t := p.Sub(s.Left).Dot(d) / d.Dot(d)
	switch {
	case t <= 0:
		return p.Dist(s.Left)
	case t >= 1:
		return p.Dist(s.Right)
	}
	return p.Dist(s.Left.Add(d.Scale(t)))
}

// MergeSegs merges collinear overlapping or collinear adjacent segments
// into maximal ones and returns the resulting set in canonical order.
// It implements the paper's merge-segs function used by the ι_s/ι_e
// endpoint cleanup of uline (Section 3.2.6) and is also the final step
// of trajectory computation.
func MergeSegs(segs []Segment) []Segment {
	if len(segs) <= 1 {
		out := make([]Segment, len(segs))
		copy(out, segs)
		return out
	}
	work := make([]Segment, len(segs))
	copy(work, segs)
	// Repeatedly merge a pair of collinear, overlapping-or-meeting
	// segments until a fixed point is reached. The input sets are small
	// (cleanup at unit endpoints), so the quadratic pass is acceptable;
	// trajectory computation pre-groups by supporting line.
	for {
		merged := false
		for i := 0; i < len(work) && !merged; i++ {
			for j := i + 1; j < len(work) && !merged; j++ {
				s, t := work[i], work[j]
				if !Collinear(s, t) {
					continue
				}
				if !Overlap(s, t) && !(Meet(s, t) || Touch(s, t)) {
					continue
				}
				// Union of two collinear segments that share at least a
				// point is the segment spanned by the extreme endpoints.
				lo, hi := s.Left, s.Right
				if t.Left.Less(lo) {
					lo = t.Left
				}
				if hi.Less(t.Right) {
					hi = t.Right
				}
				work[i] = Segment{Left: lo, Right: hi}
				work = append(work[:j], work[j+1:]...)
				merged = true
			}
		}
		if !merged {
			break
		}
	}
	SortSegments(work)
	return work
}

// SortSegments sorts segs in the canonical segment order, in place.
func SortSegments(segs []Segment) {
	slices.SortFunc(segs, Segment.Cmp)
}
