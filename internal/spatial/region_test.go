package spatial

import (
	"errors"
	"testing"

	"movingdb/internal/geom"
)

func sq(x, y, w float64) []geom.Point {
	return Ring(x, y, x+w, y, x+w, y+w, x, y+w)
}

func TestCycleCanonical(t *testing.T) {
	// Same ring given CW, rotated: identical canonical form.
	a := MustCycle(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4))
	b := MustCycle(geom.Pt(4, 4), geom.Pt(4, 0), geom.Pt(0, 0), geom.Pt(0, 4)) // CW, rotated
	if !a.Equal(b) {
		t.Errorf("canonical forms differ: %v vs %v", a, b)
	}
	if a.Vertices()[0] != geom.Pt(0, 0) {
		t.Errorf("canonical start = %v", a.Vertices()[0])
	}
	if signedArea(a.Vertices()) <= 0 {
		t.Error("canonical orientation not CCW")
	}
	if a.Area() != 16 || a.Perimeter() != 16 {
		t.Errorf("area/perimeter = %v/%v", a.Area(), a.Perimeter())
	}
}

func TestCycleValidation(t *testing.T) {
	if _, err := NewCycle(geom.Pt(0, 0), geom.Pt(1, 1)); !errors.Is(err, ErrInvalidCycle) {
		t.Error("two-vertex cycle accepted")
	}
	// Self-intersecting "bowtie".
	if _, err := NewCycle(geom.Pt(0, 0), geom.Pt(2, 2), geom.Pt(2, 0), geom.Pt(0, 2)); !errors.Is(err, ErrInvalidCycle) {
		t.Error("bowtie accepted")
	}
	// Repeated vertex.
	if _, err := NewCycle(geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 0), geom.Pt(0, 2)); err == nil {
		t.Error("repeated vertex accepted")
	}
	// Collinear spike (touching edges).
	if _, err := NewCycle(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(2, 0), geom.Pt(2, 2)); err == nil {
		t.Error("spike accepted")
	}
	// Valid triangle.
	if _, err := NewCycle(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(2, 3)); err != nil {
		t.Errorf("triangle rejected: %v", err)
	}
}

func TestCycleContainment(t *testing.T) {
	outer := MustCycle(sq(0, 0, 10)...)
	inner := MustCycle(sq(2, 2, 2)...)
	beside := MustCycle(sq(20, 0, 2)...)
	if !inner.EdgeInside(outer) {
		t.Error("inner not edge-inside outer")
	}
	if outer.EdgeInside(inner) {
		t.Error("outer edge-inside inner")
	}
	if !inner.EdgeDisjoint(beside) {
		t.Error("separate cycles not edge-disjoint")
	}
	if inner.EdgeDisjoint(outer) {
		t.Error("nested cycles reported edge-disjoint")
	}
	if !outer.ContainsPoint(geom.Pt(0, 5)) {
		t.Error("boundary point not contained")
	}
	if outer.ContainsPointStrict(geom.Pt(0, 5)) {
		t.Error("boundary point strictly contained")
	}
}

func TestFaceAndRegion(t *testing.T) {
	r, err := PolygonRegion(sq(0, 0, 10), sq(2, 2, 2), sq(6, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFaces() != 1 || r.NumCycles() != 3 || r.NumSegments() != 12 {
		t.Errorf("structure = %d faces, %d cycles, %d segs", r.NumFaces(), r.NumCycles(), r.NumSegments())
	}
	if got := r.Area(); got != 100-4-4 {
		t.Errorf("Area = %v", got)
	}
	if got := r.Perimeter(); got != 40+8+8 {
		t.Errorf("Perimeter = %v", got)
	}
	if !r.ContainsPoint(geom.Pt(1, 1)) {
		t.Error("face point not contained")
	}
	if r.ContainsPoint(geom.Pt(3, 3)) {
		t.Error("hole interior contained")
	}
	if !r.ContainsPoint(geom.Pt(2, 3)) {
		t.Error("hole boundary must belong to the region (closure semantics)")
	}
	if r.ContainsPoint(geom.Pt(11, 1)) {
		t.Error("outside point contained")
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestRegionInvalid(t *testing.T) {
	// Hole outside the outer cycle.
	if _, err := PolygonRegion(sq(0, 0, 4), sq(10, 10, 2)); !errors.Is(err, ErrInvalidRegion) {
		t.Error("external hole accepted")
	}
	// Hole overlapping the outer boundary.
	if _, err := PolygonRegion(sq(0, 0, 4), sq(2, 0, 4)); err == nil {
		t.Error("hole crossing boundary accepted")
	}
	// Overlapping faces.
	f1 := MustFace(MustCycle(sq(0, 0, 4)...))
	f2 := MustFace(MustCycle(sq(2, 2, 4)...))
	if _, err := NewRegion(f1, f2); !errors.Is(err, ErrInvalidRegion) {
		t.Error("overlapping faces accepted")
	}
	// Overlapping holes.
	if _, err := PolygonRegion(sq(0, 0, 10), sq(2, 2, 3), sq(3, 3, 3)); err == nil {
		t.Error("overlapping holes accepted")
	}
}

func TestRegionMultiFace(t *testing.T) {
	r, err := NewRegion(
		MustFace(MustCycle(sq(0, 0, 2)...)),
		MustFace(MustCycle(sq(5, 5, 3)...)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFaces() != 2 {
		t.Fatalf("faces = %d", r.NumFaces())
	}
	if got := r.Area(); got != 4+9 {
		t.Errorf("Area = %v", got)
	}
	// Canonical face order: by first vertex of the outer cycle.
	if r.Faces()[0].Outer.Vertices()[0] != geom.Pt(0, 0) {
		t.Error("faces not in canonical order")
	}
	if !r.ContainsPoint(geom.Pt(6, 6)) || r.ContainsPoint(geom.Pt(4, 4)) {
		t.Error("multi-face membership wrong")
	}
}

func TestFaceInsideHole(t *testing.T) {
	// An island: face inside the hole of another face.
	big := MustFace(MustCycle(sq(0, 0, 10)...), MustCycle(sq(2, 2, 6)...))
	island := MustFace(MustCycle(sq(4, 4, 2)...))
	r, err := NewRegion(big, island)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Area(); got != (100-36)+4 {
		t.Errorf("Area = %v", got)
	}
	if !r.ContainsPoint(geom.Pt(5, 5)) {
		t.Error("island interior not contained")
	}
	if r.ContainsPoint(geom.Pt(3, 3)) {
		t.Error("hole ring (outside island) contained")
	}
	if !r.ContainsPoint(geom.Pt(1, 1)) {
		t.Error("big face interior not contained")
	}
}

func TestRegionEqual(t *testing.T) {
	a := MustPolygonRegion(sq(0, 0, 4), sq(1, 1, 1))
	b := MustPolygonRegion(sq(0, 0, 4), sq(1, 1, 1))
	c := MustPolygonRegion(sq(0, 0, 4))
	if !a.Equal(b) {
		t.Error("identical regions not equal")
	}
	if a.Equal(c) {
		t.Error("different regions equal")
	}
	var empty Region
	if !empty.IsEmpty() || empty.Area() != 0 {
		t.Error("zero Region not empty")
	}
}

func TestRegionSegmentQueries(t *testing.T) {
	r := MustPolygonRegion(sq(0, 0, 4))
	if got := r.DistToPoint(geom.Pt(7, 0)); got != 3 {
		t.Errorf("DistToPoint = %v", got)
	}
	if got := r.DistToPoint(geom.Pt(2, 2)); got != 0 {
		t.Errorf("inside DistToPoint = %v", got)
	}
}

func TestClose(t *testing.T) {
	// Square with hole from a segment soup.
	segs := append(MustCycle(sq(0, 0, 10)...).Segments(), MustCycle(sq(2, 2, 2)...).Segments()...)
	r, err := Close(segs)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFaces() != 1 || r.NumCycles() != 2 {
		t.Fatalf("structure = %d faces, %d cycles", r.NumFaces(), r.NumCycles())
	}
	if got := r.Area(); got != 100-4 {
		t.Errorf("Area = %v", got)
	}
	want := MustPolygonRegion(sq(0, 0, 10), sq(2, 2, 2))
	if !r.Equal(want) {
		t.Errorf("Close result differs from direct construction:\n%v\n%v", r, want)
	}
}

func TestCloseMultiFaceAndIsland(t *testing.T) {
	var segs []geom.Segment
	segs = append(segs, MustCycle(sq(0, 0, 10)...).Segments()...) // big outer
	segs = append(segs, MustCycle(sq(2, 2, 6)...).Segments()...)  // its hole
	segs = append(segs, MustCycle(sq(4, 4, 2)...).Segments()...)  // island in the hole
	segs = append(segs, MustCycle(sq(20, 0, 3)...).Segments()...) // separate face
	r, err := Close(segs)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFaces() != 3 || r.NumCycles() != 4 {
		t.Fatalf("structure = %d faces, %d cycles", r.NumFaces(), r.NumCycles())
	}
	if got := r.Area(); got != (100-36)+4+9 {
		t.Errorf("Area = %v", got)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate after Close: %v", err)
	}
}

func TestCloseTouchingHole(t *testing.T) {
	// A hole touching the outer cycle in exactly one vertex: the face
	// walk of the in-between area is non-simple and must be split.
	outer := MustCycle(sq(0, 0, 8)...)
	hole := MustCycle(geom.Pt(0, 0), geom.Pt(3, 1), geom.Pt(1, 3)) // touches outer at (0,0)
	segs := append(outer.Segments(), hole.Segments()...)
	r, err := Close(segs)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFaces() != 1 || r.NumCycles() != 2 {
		t.Fatalf("structure = %d faces, %d cycles", r.NumFaces(), r.NumCycles())
	}
	if got, want := r.Area(), 64-hole.Area(); got != want {
		t.Errorf("Area = %v, want %v", got, want)
	}
}

func TestCloseErrors(t *testing.T) {
	// Dangling segment: odd vertex degree.
	segs := append(MustCycle(sq(0, 0, 4)...).Segments(), geom.Seg(10, 10, 11, 11))
	if _, err := Close(segs); !errors.Is(err, ErrInvalidRegion) {
		t.Error("dangling segment accepted")
	}
	// Empty input: empty region.
	r, err := Close(nil)
	if err != nil || !r.IsEmpty() {
		t.Errorf("Close(nil) = %v, %v", r, err)
	}
}

func TestCloseTouchingFaces(t *testing.T) {
	// Two triangles touching at one point: two faces.
	t1 := MustCycle(geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2))
	t2 := MustCycle(geom.Pt(2, 2), geom.Pt(4, 2), geom.Pt(4, 4))
	segs := append(t1.Segments(), t2.Segments()...)
	r, err := Close(segs)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFaces() != 2 {
		t.Fatalf("faces = %d", r.NumFaces())
	}
	if got := r.Area(); got != t1.Area()+t2.Area() {
		t.Errorf("Area = %v", got)
	}
}
