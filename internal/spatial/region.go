package spatial

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"movingdb/internal/geom"
)

// Face is a pair of an outer cycle and a possibly empty set of hole
// cycles (the Face carrier set of Section 3.2.2). Holes are kept in a
// canonical order (by their first vertex) for unique representation.
type Face struct {
	Outer Cycle
	Holes []Cycle
}

// ErrInvalidRegion reports a violation of the region carrier set
// constraints.
var ErrInvalidRegion = errors.New("spatial: invalid region")

// NewFace validates a face: every hole must be edge-inside the outer
// cycle and holes must be pairwise edge-disjoint.
func NewFace(outer Cycle, holes ...Cycle) (Face, error) {
	f := Face{Outer: outer, Holes: sortHoles(holes)}
	if err := f.Validate(); err != nil {
		return Face{}, err
	}
	return f, nil
}

// MustFace is like NewFace but panics on invalid input.
func MustFace(outer Cycle, holes ...Cycle) Face {
	f, err := NewFace(outer, holes...)
	if err != nil {
		panic(err)
	}
	return f
}

func sortHoles(holes []Cycle) []Cycle {
	hs := make([]Cycle, len(holes))
	copy(hs, holes)
	slices.SortFunc(hs, func(a, b Cycle) int { return a.verts[0].Cmp(b.verts[0]) })
	return hs
}

// Validate checks the Face carrier set constraints.
func (f Face) Validate() error {
	if err := f.Outer.Validate(); err != nil {
		return err
	}
	for i, h := range f.Holes {
		if err := h.Validate(); err != nil {
			return err
		}
		if !h.EdgeInside(f.Outer) {
			return fmt.Errorf("%w: hole %v not edge-inside outer cycle", ErrInvalidRegion, h)
		}
		for j := i + 1; j < len(f.Holes); j++ {
			if !h.EdgeDisjoint(f.Holes[j]) {
				return fmt.Errorf("%w: holes %v and %v not edge-disjoint", ErrInvalidRegion, h, f.Holes[j])
			}
		}
	}
	return nil
}

// Area returns the face area: outer cycle area minus hole areas.
func (f Face) Area() float64 {
	a := f.Outer.Area()
	for _, h := range f.Holes {
		a -= h.Area()
	}
	return a
}

// Perimeter returns the total boundary length including holes.
func (f Face) Perimeter() float64 {
	p := f.Outer.Perimeter()
	for _, h := range f.Holes {
		p += h.Perimeter()
	}
	return p
}

// Segments returns all boundary segments of the face.
func (f Face) Segments() []geom.Segment {
	segs := f.Outer.Segments()
	for _, h := range f.Holes {
		segs = append(segs, h.Segments()...)
	}
	return segs
}

// ContainsPoint reports whether p belongs to the face (boundary
// included, hole interiors excluded; hole boundaries belong to the face
// by the closure semantics of Section 3.2.2).
func (f Face) ContainsPoint(p geom.Point) bool {
	if !f.Outer.ContainsPoint(p) {
		return false
	}
	for _, h := range f.Holes {
		if h.ContainsPointStrict(p) {
			return false
		}
	}
	return true
}

// EdgeDisjoint reports whether faces f and g are edge-disjoint: their
// outer cycles are edge-disjoint, or one face lies edge-inside a hole of
// the other (Section 3.2.2).
func (f Face) EdgeDisjoint(g Face) bool {
	if f.Outer.EdgeDisjoint(g.Outer) {
		return true
	}
	for _, h := range g.Holes {
		if f.Outer.EdgeInside(h) {
			return true
		}
	}
	for _, h := range f.Holes {
		if g.Outer.EdgeInside(h) {
			return true
		}
	}
	return false
}

// Region is the discrete region type: a set of pairwise edge-disjoint
// faces (Section 3.2.2). Besides the face structure, the value holds the
// ordered halfsegment array and summary data of the root record design
// of Section 4.1. The zero Region is the empty region.
type Region struct {
	faces []Face
	hs    []geom.HalfSegment
	bbox  geom.Rect
	area  float64
	perim float64
}

// NewRegion validates the faces (each face internally, and pairwise
// edge-disjointness) and assembles the region value.
func NewRegion(faces ...Face) (Region, error) {
	for i, f := range faces {
		if err := f.Validate(); err != nil {
			return Region{}, err
		}
		for j := i + 1; j < len(faces); j++ {
			if !f.EdgeDisjoint(faces[j]) {
				return Region{}, fmt.Errorf("%w: faces %d and %d not edge-disjoint", ErrInvalidRegion, i, j)
			}
		}
	}
	return regionFromFacesTrusted(faces), nil
}

// MustRegion is like NewRegion but panics on invalid input.
func MustRegion(faces ...Face) Region {
	r, err := NewRegion(faces...)
	if err != nil {
		panic(err)
	}
	return r
}

// regionFromFacesTrusted assembles the region value without validation.
func regionFromFacesTrusted(faces []Face) Region {
	fs := make([]Face, len(faces))
	copy(fs, faces)
	slices.SortFunc(fs, func(a, b Face) int { return a.Outer.verts[0].Cmp(b.Outer.verts[0]) })
	var segs []geom.Segment
	var area, perim float64
	for _, f := range fs {
		segs = append(segs, f.Segments()...)
		area += f.Area()
		perim += f.Perimeter()
	}
	hs := geom.HalfSegments(segs)
	debugCheckHalfSegments("regionFromFacesTrusted", hs)
	bbox := geom.EmptyRect()
	for _, s := range segs {
		bbox = bbox.Union(s.BBox())
	}
	return Region{faces: fs, hs: hs, bbox: bbox, area: area, perim: perim}
}

// Faces returns the canonical face sequence (shared; read-only).
func (r Region) Faces() []Face { return r.faces }

// NumFaces returns the number of faces.
func (r Region) NumFaces() int { return len(r.faces) }

// NumCycles returns the total number of cycles (outer + holes).
func (r Region) NumCycles() int {
	n := 0
	for _, f := range r.faces {
		n += 1 + len(f.Holes)
	}
	return n
}

// NumSegments returns the number of boundary segments.
func (r Region) NumSegments() int { return len(r.hs) / 2 }

// IsEmpty reports whether the region has no faces.
func (r Region) IsEmpty() bool { return len(r.faces) == 0 }

// HalfSegments returns the ordered halfsegment array (shared;
// read-only).
func (r Region) HalfSegments() []geom.HalfSegment { return r.hs }

// Segments returns all boundary segments.
func (r Region) Segments() []geom.Segment { return geom.SegmentsOf(r.hs) }

// Area returns the total area (the size operation).
func (r Region) Area() float64 { return r.area }

// Perimeter returns the total boundary length.
func (r Region) Perimeter() float64 { return r.perim }

// BBox returns the bounding box from the root record.
func (r Region) BBox() geom.Rect { return r.bbox }

// ContainsPoint reports whether p belongs to the region (boundary
// included), via the plumbline parity over all boundary segments.
func (r Region) ContainsPoint(p geom.Point) bool {
	if !r.bbox.ContainsPoint(p) {
		return false
	}
	return geom.Plumbline(p, geom.SegmentsOf(r.hs))
}

// DistToPoint returns the distance from the region to p: zero if p is
// inside, otherwise the distance to the nearest boundary segment.
func (r Region) DistToPoint(p geom.Point) float64 {
	if r.ContainsPoint(p) {
		return 0
	}
	d := 1e308
	for _, h := range r.hs {
		if h.LeftDom {
			d = min(d, h.Seg.DistToPoint(p))
		}
	}
	return d
}

// Equal reports value equality via the ordered halfsegment arrays plus
// the face structure.
func (r Region) Equal(q Region) bool {
	if !slices.Equal(r.hs, q.hs) {
		return false
	}
	if len(r.faces) != len(q.faces) {
		return false
	}
	for i := range r.faces {
		if !r.faces[i].Outer.Equal(q.faces[i].Outer) || len(r.faces[i].Holes) != len(q.faces[i].Holes) {
			return false
		}
		for j := range r.faces[i].Holes {
			if !r.faces[i].Holes[j].Equal(q.faces[i].Holes[j]) {
				return false
			}
		}
	}
	return true
}

// Validate runs the full carrier set checks (for values decoded from
// storage or assembled by trusted paths).
func (r Region) Validate() error {
	for i, f := range r.faces {
		if err := f.Validate(); err != nil {
			return err
		}
		for j := i + 1; j < len(r.faces); j++ {
			if !f.EdgeDisjoint(r.faces[j]) {
				return fmt.Errorf("%w: faces %d and %d not edge-disjoint", ErrInvalidRegion, i, j)
			}
		}
	}
	return nil
}

// String renders the region face by face.
func (r Region) String() string {
	var b strings.Builder
	b.WriteString("region{")
	for i, f := range r.faces {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "face(outer=%v", f.Outer)
		for _, h := range f.Holes {
			fmt.Fprintf(&b, ", hole=%v", h)
		}
		b.WriteByte(')')
	}
	b.WriteByte('}')
	return b.String()
}
