// Package spatial implements the discrete spatial data types of
// Section 3.2.2 of the paper: point, points (finite point sets), line
// (finite sets of non-overlapping collinear segments, stored as ordered
// halfsegments) and region (sets of edge-disjoint faces, each an outer
// cycle with hole cycles). All set-valued types keep their elements in a
// unique canonical order so that value equality coincides with
// representation equality, as required by the data structure design of
// Section 4.
package spatial

import (
	"fmt"
	"slices"
	"strings"

	"movingdb/internal/geom"
)

// Point is the discrete point type: a 2D point plus a defined flag
// (D_point = Point ∪ {⊥}). The zero Point is undefined.
type Point struct {
	P       geom.Point
	defined bool
}

// DefPoint returns a defined point value.
func DefPoint(p geom.Point) Point { return Point{P: p, defined: true} }

// UndefPoint returns the undefined point ⊥.
func UndefPoint() Point { return Point{} }

// Defined reports whether the point is not ⊥.
func (p Point) Defined() bool { return p.defined }

// String renders the point, or "undef".
func (p Point) String() string {
	if !p.defined {
		return "undef"
	}
	return p.P.String()
}

// Points is the points type: a finite set of points in canonical
// (lexicographic) order with no duplicates. The zero value is the empty
// set.
type Points struct {
	pts []geom.Point
}

// NewPoints builds a canonical point set from the given points,
// sorting and deduplicating.
func NewPoints(pts ...geom.Point) Points {
	work := make([]geom.Point, len(pts))
	copy(work, pts)
	slices.SortFunc(work, geom.Point.Cmp)
	work = slices.Compact(work)
	return Points{pts: work}
}

// NewOrderedPoints validates points that are already in canonical order
// — a stored points array — and wraps them without copying. Unlike
// NewPoints it neither sorts nor deduplicates: an array out of order, or
// with a repeated point, is invalid.
func NewOrderedPoints(pts []geom.Point) (Points, error) {
	for k := 1; k < len(pts); k++ {
		if pts[k-1].Cmp(pts[k]) >= 0 {
			return Points{}, fmt.Errorf("spatial: points %v and %v out of order or repeated", pts[k-1], pts[k])
		}
	}
	return Points{pts: pts}, nil
}

// Slice returns the ordered points (shared; read-only).
func (ps Points) Slice() []geom.Point { return ps.pts }

// Len returns the number of points.
func (ps Points) Len() int { return len(ps.pts) }

// IsEmpty reports whether the set is empty.
func (ps Points) IsEmpty() bool { return len(ps.pts) == 0 }

// Contains reports membership by binary search.
func (ps Points) Contains(p geom.Point) bool {
	_, ok := slices.BinarySearchFunc(ps.pts, p, geom.Point.Cmp)
	return ok
}

// Union returns the set union.
func (ps Points) Union(qs Points) Points {
	out := make([]geom.Point, 0, len(ps.pts)+len(qs.pts))
	i, j := 0, 0
	for i < len(ps.pts) && j < len(qs.pts) {
		switch c := ps.pts[i].Cmp(qs.pts[j]); {
		case c < 0:
			out = append(out, ps.pts[i])
			i++
		case c > 0:
			out = append(out, qs.pts[j])
			j++
		default:
			out = append(out, ps.pts[i])
			i++
			j++
		}
	}
	out = append(out, ps.pts[i:]...)
	out = append(out, qs.pts[j:]...)
	return Points{pts: out}
}

// Intersect returns the set intersection.
func (ps Points) Intersect(qs Points) Points {
	var out []geom.Point
	i, j := 0, 0
	for i < len(ps.pts) && j < len(qs.pts) {
		switch c := ps.pts[i].Cmp(qs.pts[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			out = append(out, ps.pts[i])
			i++
			j++
		}
	}
	return Points{pts: out}
}

// Minus returns the set difference ps \ qs.
func (ps Points) Minus(qs Points) Points {
	var out []geom.Point
	i, j := 0, 0
	for i < len(ps.pts) {
		if j >= len(qs.pts) {
			out = append(out, ps.pts[i:]...)
			break
		}
		switch c := ps.pts[i].Cmp(qs.pts[j]); {
		case c < 0:
			out = append(out, ps.pts[i])
			i++
		case c > 0:
			j++
		default:
			i++
			j++
		}
	}
	return Points{pts: out}
}

// Equal reports set equality (representation equality, by canonicity).
func (ps Points) Equal(qs Points) bool { return slices.Equal(ps.pts, qs.pts) }

// BBox returns the bounding box of the set.
func (ps Points) BBox() geom.Rect {
	r := geom.EmptyRect()
	for _, p := range ps.pts {
		r = r.ExtendPoint(p)
	}
	return r
}

// Validate checks canonical order and uniqueness (for storage decode).
func (ps Points) Validate() error {
	for i := 1; i < len(ps.pts); i++ {
		if ps.pts[i].Cmp(ps.pts[i-1]) <= 0 {
			return fmt.Errorf("spatial: points out of order at %d: %v, %v", i, ps.pts[i-1], ps.pts[i])
		}
	}
	return nil
}

// String renders the set as "{(x, y), ...}".
func (ps Points) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range ps.pts {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	b.WriteByte('}')
	return b.String()
}
