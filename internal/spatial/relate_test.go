package spatial

import (
	"math"
	"testing"

	"movingdb/internal/geom"
)

func TestRegionIntersectsRegion(t *testing.T) {
	a := MustPolygonRegion(sq(0, 0, 4))
	b := MustPolygonRegion(sq(2, 2, 4)) // overlaps a
	c := MustPolygonRegion(sq(10, 10, 2))
	d := MustPolygonRegion(sq(1, 1, 2)) // inside a

	if !a.IntersectsRegion(b) || !b.IntersectsRegion(a) {
		t.Error("overlapping regions not intersecting")
	}
	if a.IntersectsRegion(c) {
		t.Error("distant regions intersecting")
	}
	if !a.IntersectsRegion(d) || !d.IntersectsRegion(a) {
		t.Error("contained region not intersecting")
	}
	// Touching at a corner counts as intersecting (shared point).
	e := MustPolygonRegion(sq(4, 4, 2))
	if !a.IntersectsRegion(e) {
		t.Error("corner-touching regions not intersecting")
	}
	var empty Region
	if a.IntersectsRegion(empty) || empty.IntersectsRegion(a) {
		t.Error("empty region intersects")
	}
}

func TestLineClippedToRegion(t *testing.T) {
	r := MustPolygonRegion(sq(2, -1, 4)) // x ∈ [2, 6]
	l := MustLine(geom.Seg(0, 0, 10, 0))
	clipped := l.ClippedToRegion(r)
	if clipped.NumSegments() != 1 {
		t.Fatalf("clipped = %v", clipped)
	}
	if clipped.Segments()[0] != geom.Seg(2, 0, 6, 0) {
		t.Errorf("clipped segment = %v", clipped.Segments()[0])
	}
	if math.Abs(clipped.Length()-4) > 1e-12 {
		t.Errorf("clipped length = %v", clipped.Length())
	}
	// Region with a hole cuts the line twice.
	holed := MustPolygonRegion(sq(0, -5, 10), sq(3, -1, 2)) // hole x ∈ [3,5]
	clipped = MustLine(geom.Seg(-2, 0, 12, 0)).ClippedToRegion(holed)
	if clipped.NumSegments() != 2 {
		t.Fatalf("holed clip = %v", clipped)
	}
	if math.Abs(clipped.Length()-8) > 1e-12 {
		t.Errorf("holed clip length = %v", clipped.Length())
	}
	// Entirely outside.
	if got := MustLine(geom.Seg(0, 100, 1, 100)).ClippedToRegion(r); !got.IsEmpty() {
		t.Errorf("outside clip = %v", got)
	}
}
