package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointOrder(t *testing.T) {
	cases := []struct {
		p, q Point
		want int
	}{
		{Pt(0, 0), Pt(1, 0), -1},
		{Pt(1, 0), Pt(0, 0), 1},
		{Pt(0, 0), Pt(0, 1), -1},
		{Pt(0, 1), Pt(0, 0), 1},
		{Pt(2, 3), Pt(2, 3), 0},
		{Pt(-1, 5), Pt(0, -5), -1},
	}
	for _, c := range cases {
		if got := c.p.Cmp(c.q); got != c.want {
			t.Errorf("Cmp(%v, %v) = %d, want %d", c.p, c.q, got, c.want)
		}
		if got := c.p.Less(c.q); got != (c.want < 0) {
			t.Errorf("Less(%v, %v) = %v, want %v", c.p, c.q, got, c.want < 0)
		}
	}
}

func TestPointOrderTotal(t *testing.T) {
	// Antisymmetry and totality of the lexicographic order, checked
	// property-style.
	f := func(ax, ay, bx, by float64) bool {
		p, q := Pt(ax, ay), Pt(bx, by)
		c1, c2 := p.Cmp(q), q.Cmp(p)
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == (p == q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointVectorOps(t *testing.T) {
	p, q := Pt(3, 4), Pt(1, -2)
	if got := p.Add(q); got != Pt(4, 2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != -6-4 {
		t.Errorf("Cross = %v", got)
	}
	if got := p.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := Pt(0, 0).Dist(p); got != 5 {
		t.Errorf("Dist = %v", got)
	}
}

func TestOrient(t *testing.T) {
	a, b := Pt(0, 0), Pt(2, 0)
	if Orient(a, b, Pt(1, 1)) != 1 {
		t.Error("expected CCW")
	}
	if Orient(a, b, Pt(1, -1)) != -1 {
		t.Error("expected CW")
	}
	if Orient(a, b, Pt(5, 0)) != 0 {
		t.Error("expected collinear")
	}
	// Scale-aware tolerance: nearly-collinear at large magnitude.
	if Orient(Pt(0, 0), Pt(1e6, 0), Pt(2e6, 1e-5)) != 0 {
		t.Error("expected approximately collinear at large scale")
	}
}

func TestNewSegmentCanonical(t *testing.T) {
	s, err := NewSegment(Pt(2, 1), Pt(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if s.Left != Pt(0, 3) || s.Right != Pt(2, 1) {
		t.Errorf("not canonical: %v", s)
	}
	if _, err := NewSegment(Pt(1, 1), Pt(1, 1)); err == nil {
		t.Error("degenerate segment accepted")
	}
}

func TestSegmentCanonicalProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Pt(ax, ay), Pt(bx, by)
		if p == q {
			return true
		}
		s, err := NewSegment(p, q)
		if err != nil {
			return false
		}
		return s.Left.Less(s.Right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentContains(t *testing.T) {
	s := Seg(0, 0, 4, 4)
	if !s.Contains(Pt(2, 2)) {
		t.Error("midpoint not contained")
	}
	if !s.Contains(Pt(0, 0)) || !s.Contains(Pt(4, 4)) {
		t.Error("endpoints not contained")
	}
	if s.Contains(Pt(5, 5)) {
		t.Error("beyond right endpoint contained")
	}
	if s.Contains(Pt(2, 3)) {
		t.Error("off-line point contained")
	}
	if s.ContainsInterior(Pt(0, 0)) {
		t.Error("endpoint in interior")
	}
	if !s.ContainsInterior(Pt(1, 1)) {
		t.Error("interior point rejected")
	}
}

func TestPredicates(t *testing.T) {
	// Proper crossing.
	s := Seg(0, 0, 2, 2)
	u := Seg(0, 2, 2, 0)
	if !PIntersect(s, u) {
		t.Error("crossing segments: PIntersect false")
	}
	if Touch(s, u) || Meet(s, u) {
		t.Error("crossing segments should not touch or meet")
	}

	// Meeting at an endpoint.
	v := Seg(2, 2, 4, 0)
	if !Meet(s, v) {
		t.Error("meet at (2,2) not detected")
	}
	if PIntersect(s, v) {
		t.Error("meeting is not a proper intersection")
	}

	// Touch: endpoint of one in the interior of the other.
	w := Seg(1, 1, 1, 5)
	if !Touch(s, w) {
		t.Error("touch not detected")
	}
	if PIntersect(s, w) {
		t.Error("touch is not a proper intersection")
	}

	// Collinear overlap.
	x := Seg(1, 1, 3, 3)
	if !Collinear(s, x) {
		t.Error("collinear not detected")
	}
	if !Overlap(s, x) {
		t.Error("overlap not detected")
	}
	// Collinear but disjoint.
	y := Seg(3, 3, 5, 5)
	if !Collinear(s, y) {
		t.Error("collinear (disjoint) not detected")
	}
	if Overlap(s, y) {
		t.Error("disjoint collinear segments reported overlapping")
	}
	// Collinear meeting at a point only.
	z := Seg(2, 2, 5, 5)
	if Overlap(s, z) {
		t.Error("single shared point is not an overlap")
	}
}

func TestIntersect(t *testing.T) {
	s := Seg(0, 0, 4, 0)
	cases := []struct {
		t    Segment
		kind SegIntersection
		at   Point
	}{
		{Seg(2, -1, 2, 1), IntersectPoint, Pt(2, 0)},
		{Seg(0, 1, 4, 1), IntersectNone, Point{}},
		{Seg(1, 0, 3, 0), IntersectOverlap, Point{}},
		{Seg(4, 0, 6, 2), IntersectPoint, Pt(4, 0)},
		{Seg(4, 0, 6, 0), IntersectPoint, Pt(4, 0)}, // collinear, meets at endpoint
		{Seg(5, 0, 6, 0), IntersectNone, Point{}},   // collinear, disjoint
		{Seg(0, 2, 1, 1), IntersectNone, Point{}},   // would hit at (2,0) if extended
	}
	for _, c := range cases {
		kind, at := Intersect(s, c.t)
		if kind != c.kind {
			t.Errorf("Intersect(%v, %v) kind = %v, want %v", s, c.t, kind, c.kind)
			continue
		}
		if kind == IntersectPoint && !ApproxEqPoint(at, c.at) {
			t.Errorf("Intersect(%v, %v) at %v, want %v", s, c.t, at, c.at)
		}
	}
}

func TestIntersectSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		p1, p2 := Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))
		p3, p4 := Pt(float64(cx), float64(cy)), Pt(float64(dx), float64(dy))
		if p1 == p2 || p3 == p4 {
			return true
		}
		s := MustSegment(p1, p2)
		u := MustSegment(p3, p4)
		k1, _ := Intersect(s, u)
		k2, _ := Intersect(u, s)
		return k1 == k2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDistances(t *testing.T) {
	s := Seg(0, 0, 4, 0)
	if got := s.DistToPoint(Pt(2, 3)); got != 3 {
		t.Errorf("interior projection distance = %v", got)
	}
	if got := s.DistToPoint(Pt(-3, 4)); got != 5 {
		t.Errorf("left endpoint distance = %v", got)
	}
	if got := s.DistToPoint(Pt(7, 4)); got != 5 {
		t.Errorf("right endpoint distance = %v", got)
	}
}

func TestMergeSegs(t *testing.T) {
	// Three collinear pieces with overlap and adjacency merge into one.
	in := []Segment{Seg(0, 0, 2, 0), Seg(1, 0, 3, 0), Seg(3, 0, 5, 0)}
	out := MergeSegs(in)
	if len(out) != 1 || out[0] != Seg(0, 0, 5, 0) {
		t.Errorf("MergeSegs = %v", out)
	}
	// Disjoint collinear pieces stay apart.
	in = []Segment{Seg(0, 0, 1, 0), Seg(2, 0, 3, 0)}
	out = MergeSegs(in)
	if len(out) != 2 {
		t.Errorf("MergeSegs merged disjoint segments: %v", out)
	}
	// Non-collinear segments sharing an endpoint stay apart.
	in = []Segment{Seg(0, 0, 1, 1), Seg(1, 1, 2, 0)}
	out = MergeSegs(in)
	if len(out) != 2 {
		t.Errorf("MergeSegs merged non-collinear: %v", out)
	}
	// Input must not be mutated.
	in = []Segment{Seg(1, 0, 3, 0), Seg(0, 0, 2, 0)}
	_ = MergeSegs(in)
	if in[0] != Seg(1, 0, 3, 0) {
		t.Error("MergeSegs mutated its input")
	}
}

func TestHalfSegmentOrder(t *testing.T) {
	s := Seg(0, 0, 2, 2)
	left := HalfSegment{Seg: s, LeftDom: true}
	right := HalfSegment{Seg: s, LeftDom: false}
	if left.Dom() != Pt(0, 0) || right.Dom() != Pt(2, 2) {
		t.Fatal("dominating points wrong")
	}
	if left.Cmp(right) >= 0 {
		t.Error("left halfsegment should precede its right twin (smaller dom point)")
	}
	// Same dominating point: right halfsegments first.
	s2 := Seg(2, 2, 4, 0)
	l2 := HalfSegment{Seg: s2, LeftDom: true}
	if right.Cmp(l2) >= 0 {
		t.Error("right halfsegment must precede left halfsegment at same dom point")
	}
}

func TestHalfSegmentsRoundTrip(t *testing.T) {
	segs := []Segment{Seg(0, 0, 2, 2), Seg(0, 2, 2, 0), Seg(-1, 0, 0, 0)}
	hs := HalfSegments(segs)
	if len(hs) != 6 {
		t.Fatalf("len = %d", len(hs))
	}
	for i := 1; i < len(hs); i++ {
		if hs[i].Less(hs[i-1]) {
			t.Fatalf("not sorted at %d: %v > %v", i, hs[i-1], hs[i])
		}
	}
	back := SegmentsOf(hs)
	if len(back) != len(segs) {
		t.Fatalf("round trip lost segments: %v", back)
	}
	want := map[Segment]bool{}
	for _, s := range segs {
		want[s] = true
	}
	for _, s := range back {
		if !want[s] {
			t.Errorf("unexpected segment %v", s)
		}
	}
}

func TestHalfSegOrderProperty(t *testing.T) {
	f := func(ax, ay, bx, by int8, flag1, flag2 bool) bool {
		p1, p2 := Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))
		if p1 == p2 {
			return true
		}
		s := MustSegment(p1, p2)
		h := HalfSegment{Seg: s, LeftDom: flag1}
		g := HalfSegment{Seg: s, LeftDom: flag2}
		return h.Cmp(g) == -g.Cmp(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Error("EmptyRect not empty")
	}
	r := e.ExtendPoint(Pt(1, 2)).ExtendPoint(Pt(-1, 5))
	want := Rect{MinX: -1, MinY: 2, MaxX: 1, MaxY: 5}
	if r != want {
		t.Errorf("extend = %v, want %v", r, want)
	}
	if !r.Union(e).Intersects(r) {
		t.Error("union with empty lost the rectangle")
	}
	if r.Intersects(Rect{MinX: 2, MinY: 0, MaxX: 3, MaxY: 1}) {
		t.Error("disjoint rects intersect")
	}
	if !r.Intersects(Rect{MinX: 1, MinY: 5, MaxX: 3, MaxY: 7}) {
		t.Error("corner-touching rects should intersect")
	}
	if !r.ContainsPoint(Pt(0, 3)) || r.ContainsPoint(Pt(0, 6)) {
		t.Error("ContainsPoint wrong")
	}
}

func TestCube(t *testing.T) {
	c := EmptyCube()
	if !c.IsEmpty() {
		t.Error("EmptyCube not empty")
	}
	a := Cube{Rect: Rect{0, 0, 1, 1}, MinT: 0, MaxT: 1}
	b := Cube{Rect: Rect{0.5, 0.5, 2, 2}, MinT: 2, MaxT: 3}
	if a.Intersects(b) {
		t.Error("time-disjoint cubes intersect")
	}
	b.MinT = 0.5
	if !a.Intersects(b) {
		t.Error("overlapping cubes do not intersect")
	}
	u := a.Union(b)
	if u.MinT != 0 || u.MaxT != 3 || u.Rect.MaxX != 2 {
		t.Errorf("union = %+v", u)
	}
}

func TestSegmentBBox(t *testing.T) {
	s := Seg(0, 3, 2, 1)
	want := Rect{MinX: 0, MinY: 1, MaxX: 2, MaxY: 3}
	if s.BBox() != want {
		t.Errorf("BBox = %v, want %v", s.BBox(), want)
	}
}

func TestPlumbline(t *testing.T) {
	// Unit square.
	square := []Segment{
		Seg(0, 0, 4, 0), Seg(4, 0, 4, 4), Seg(0, 4, 4, 4), Seg(0, 0, 0, 4),
	}
	if !Plumbline(Pt(2, 2), square) {
		t.Error("center not inside")
	}
	if Plumbline(Pt(5, 2), square) {
		t.Error("outside right reported inside")
	}
	if Plumbline(Pt(2, -1), square) {
		t.Error("below reported inside")
	}
	if !Plumbline(Pt(2, 0), square) {
		t.Error("boundary not inside (regions are closed)")
	}
	if !Plumbline(Pt(0, 0), square) {
		t.Error("corner not inside")
	}

	// Square with a square hole: segments of both cycles together.
	hole := []Segment{
		Seg(1, 1, 3, 1), Seg(3, 1, 3, 3), Seg(1, 3, 3, 3), Seg(1, 1, 1, 3),
	}
	both := append(append([]Segment{}, square...), hole...)
	if Plumbline(Pt(2, 2), both) {
		t.Error("point in hole reported inside")
	}
	if !Plumbline(Pt(0.5, 2), both) {
		t.Error("point between outer cycle and hole not inside")
	}
	if !Plumbline(Pt(2, 1), both) {
		t.Error("hole boundary belongs to the region")
	}
}

func TestPlumblineVertexGrazing(t *testing.T) {
	// Triangle with an apex directly above the query point: the ray
	// through the shared vertex must count the two incident edges once.
	tri := []Segment{Seg(0, 0, 4, 0), Seg(0, 0, 2, 2), Seg(2, 2, 4, 0)}
	if !Plumbline(Pt(2, 1), tri) {
		t.Error("inside point under apex missed")
	}
	if Plumbline(Pt(2, 3), tri) {
		t.Error("outside point above apex reported inside")
	}
}

func TestPlumblineCount(t *testing.T) {
	square := []Segment{
		Seg(0, 0, 4, 0), Seg(4, 0, 4, 4), Seg(0, 4, 4, 4), Seg(0, 0, 0, 4),
	}
	n, onB := PlumblineCount(Pt(2, 2), square)
	if n != 1 || onB {
		t.Errorf("count = %d, onBoundary = %v", n, onB)
	}
	n, onB = PlumblineCount(Pt(2, 5), square)
	if n != 2 || onB {
		t.Errorf("above: count = %d, onBoundary = %v", n, onB)
	}
	_, onB = PlumblineCount(Pt(4, 2), square)
	if !onB {
		t.Error("boundary point not flagged")
	}
}

func TestApproxHelpers(t *testing.T) {
	if !ApproxEq(1, 1+Eps/2) || ApproxEq(1, 1+Eps*2) {
		t.Error("ApproxEq tolerance wrong")
	}
	if !ApproxZero(Eps/2) || ApproxZero(2*Eps) {
		t.Error("ApproxZero tolerance wrong")
	}
	if !ApproxEqPoint(Pt(1, 2), Pt(1+Eps/2, 2-Eps/2)) {
		t.Error("ApproxEqPoint too strict")
	}
	if math.IsNaN(Pt(0, 0).Dist(Pt(3, 4))) {
		t.Error("unexpected NaN")
	}
}

func TestHalfSegmentOrderLaws(t *testing.T) {
	// Antisymmetry and transitivity of the ROSE halfsegment order over
	// random small-coordinate halfsegments (the sort and the storage
	// layout both assume a strict weak ordering).
	rng := []int8{-3, -2, -1, 0, 1, 2, 3}
	var hs []HalfSegment
	for _, ax := range rng {
		for _, ay := range []int8{-1, 0, 2} {
			for _, bx := range []int8{-2, 1, 3} {
				for _, by := range rng {
					p, q := Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))
					if p == q {
						continue
					}
					s := MustSegment(p, q)
					hs = append(hs, HalfSegment{Seg: s, LeftDom: true}, HalfSegment{Seg: s, LeftDom: false})
				}
			}
		}
	}
	// Antisymmetry on a sample.
	for i := 0; i < len(hs); i += 7 {
		for j := 0; j < len(hs); j += 11 {
			if hs[i].Cmp(hs[j]) != -hs[j].Cmp(hs[i]) {
				t.Fatalf("antisymmetry violated: %v vs %v", hs[i], hs[j])
			}
		}
	}
	// Transitivity on sampled triples.
	for i := 0; i < len(hs); i += 13 {
		for j := 0; j < len(hs); j += 17 {
			for k := 0; k < len(hs); k += 19 {
				a, b, c := hs[i], hs[j], hs[k]
				if a.Cmp(b) < 0 && b.Cmp(c) < 0 && a.Cmp(c) > 0 {
					t.Fatalf("transitivity violated: %v < %v < %v but not %v < %v", a, b, b, a, c)
				}
			}
		}
	}
	// Sorting then checking pairwise order agreement.
	SortHalfSegments(hs)
	for i := 1; i < len(hs); i++ {
		if hs[i].Cmp(hs[i-1]) < 0 {
			t.Fatalf("sort disagreement at %d", i)
		}
	}
}
