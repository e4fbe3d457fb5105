package units

import (
	"math"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
)

// translatingMCycle returns a moving cycle translating the given ring by
// velocity (vx, vy).
func translatingMCycle(ring []geom.Point, vx, vy float64) MCycle {
	c := make(MCycle, 0, len(ring))
	for _, p := range ring {
		c = append(c, MPoint{X0: p.X, X1: vx, Y0: p.Y, Y1: vy})
	}
	return c
}

// scalingMCycle returns a moving cycle that linearly interpolates ring0
// at t0 to ring1 at t1 (vertex i to vertex i).
func scalingMCycle(t0 temporal.Instant, ring0 []geom.Point, t1 temporal.Instant, ring1 []geom.Point) MCycle {
	c := make(MCycle, 0, len(ring0))
	for i := range ring0 {
		m, err := MPointThrough(t0, ring0[i], t1, ring1[i])
		if err != nil {
			panic(err)
		}
		c = append(c, m)
	}
	return c
}

func sqRing(x, y, w float64) []geom.Point {
	return []geom.Point{geom.Pt(x, y), geom.Pt(x+w, y), geom.Pt(x+w, y+w), geom.Pt(x, y+w)}
}

func TestURegionTranslating(t *testing.T) {
	u, err := NewURegion(iv(0, 10), MFace{Outer: translatingMCycle(sqRing(0, 0, 4), 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	r := u.Eval(3)
	if r.NumFaces() != 1 || r.Area() != 16 {
		t.Errorf("Eval(3): faces=%d area=%v", r.NumFaces(), r.Area())
	}
	if !r.ContainsPoint(geom.Pt(5, 2)) || r.ContainsPoint(geom.Pt(1, 2)) {
		t.Error("translated region membership wrong")
	}
	if u.NumMSegs() != 4 {
		t.Errorf("NumMSegs = %d", u.NumMSegs())
	}
}

func TestURegionWithHole(t *testing.T) {
	u, err := NewURegion(iv(0, 10), MFace{
		Outer: translatingMCycle(sqRing(0, 0, 10), 1, 0),
		Holes: []MCycle{translatingMCycle(sqRing(3, 3, 2), 1, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := u.Eval(2)
	if r.NumCycles() != 2 || r.Area() != 100-4 {
		t.Errorf("Eval(2): cycles=%d area=%v", r.NumCycles(), r.Area())
	}
	if r.ContainsPoint(geom.Pt(6, 4)) {
		t.Error("hole moved with region; point should be in hole")
	}
}

func TestURegionGrowing(t *testing.T) {
	// A square growing from side 2 to side 6.
	u, err := NewURegion(iv(0, 4), MFace{
		Outer: scalingMCycle(0, sqRing(0, 0, 2), 4, sqRing(-2, -2, 6)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Eval(2).Area(); got != 16 {
		t.Errorf("mid area = %v", got)
	}
}

func TestURegionRejectsCollapse(t *testing.T) {
	// Square collapsing to a point at t=2, inside the open interval.
	collapsed := []geom.Point{geom.Pt(2, 2), geom.Pt(2, 2), geom.Pt(2, 2), geom.Pt(2, 2)}
	_ = collapsed
	c := make(MCycle, 4)
	ring := sqRing(0, 0, 4)
	for i, p := range ring {
		m, _ := MPointThrough(0, p, 2, geom.Pt(2, 2))
		c[i] = m
	}
	if _, err := NewURegion(iv(0, 4), MFace{Outer: c}); err == nil {
		t.Error("interior collapse accepted")
	}
	// Collapse exactly at the closed end point is allowed.
	if _, err := NewURegion(iv(0, 2), MFace{Outer: c}); err != nil {
		t.Errorf("end point collapse rejected: %v", err)
	}
}

func TestURegionRejectsSelfIntersection(t *testing.T) {
	// Two vertices crossing each other makes the cycle self-intersect
	// mid-unit: vertex 1 and 2 swap x positions.
	ring0 := []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4)}
	ring1 := []geom.Point{geom.Pt(0, 0), geom.Pt(-4, 0), geom.Pt(-4, 4), geom.Pt(0, 4)}
	// This mirrors the square through the y-axis; on the way the cycle
	// degenerates (all x collapse at the crossing instant).
	c := scalingMCycle(0, ring0, 4, ring1)
	if _, err := NewURegion(iv(0, 4), MFace{Outer: c}); err == nil {
		t.Error("mirroring (degenerating) cycle accepted")
	}
}

func TestURegionRejectsFaceCollision(t *testing.T) {
	// Two faces moving toward each other overlap mid-unit.
	left := MFace{Outer: translatingMCycle(sqRing(0, 0, 4), 1, 0)}
	right := MFace{Outer: translatingMCycle(sqRing(10, 0, 4), -1, 0)}
	if _, err := NewURegion(iv(0, 10), left, right); err == nil {
		t.Error("colliding faces accepted")
	}
	// Restricted so that they only touch at the end instant: ok.
	// left spans x ∈ [t, 4+t], right spans [10−t, 14−t]; touch at t=3.
	if _, err := NewURegion(iv(0, 3), left, right); err != nil {
		t.Errorf("touch at end instant rejected: %v", err)
	}
}

func TestURegionEvalBoundaryCollapse(t *testing.T) {
	// Square collapsing to a point exactly at the end: boundary eval
	// yields the empty region.
	c := make(MCycle, 4)
	for i, p := range sqRing(0, 0, 4) {
		m, _ := MPointThrough(0, p, 2, geom.Pt(2, 2))
		c[i] = m
	}
	u := MustURegion(iv(0, 2), MFace{Outer: c})
	r, err := u.EvalBoundary(2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsEmpty() {
		t.Errorf("collapsed boundary region = %v", r)
	}
	// At the start it is the full square.
	r0, ok := u.EvalAt(0)
	if !ok || r0.Area() != 16 {
		t.Errorf("EvalAt(0) = %v, %v", r0, ok)
	}
}

func TestURegionEvalBoundaryOverlapCancel(t *testing.T) {
	// Two faces that touch along a whole edge exactly at the end
	// instant: the shared boundary pieces cancel (odd/even rule) and the
	// two squares fuse into one face.
	left := MFace{Outer: translatingMCycle(sqRing(0, 0, 4), 1, 0)}    // spans [t, 4+t]
	right := MFace{Outer: translatingMCycle(sqRing(10, 0, 4), -1, 0)} // spans [10−t, 14−t]
	u := MustURegion(iv(0, 3), left, right)
	r, err := u.EvalBoundary(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFaces() != 1 {
		t.Fatalf("fused faces = %d (region %v)", r.NumFaces(), r)
	}
	if got := r.Area(); got != 32 {
		t.Errorf("fused area = %v", got)
	}
	if got := r.Perimeter(); got != 2*(8+4) {
		t.Errorf("fused perimeter = %v", got)
	}
}

func TestURegionCube(t *testing.T) {
	u := MustURegion(iv(0, 10), MFace{Outer: translatingMCycle(sqRing(0, 0, 4), 1, 1)})
	c := u.Cube()
	if c.Rect.MaxX != 14 || c.Rect.MaxY != 14 || c.MinT != 0 || c.MaxT != 10 {
		t.Errorf("Cube = %+v", c)
	}
}

func TestURegionEqualFunc(t *testing.T) {
	f := MFace{Outer: translatingMCycle(sqRing(0, 0, 4), 1, 0)}
	u := MustURegion(iv(0, 1), f)
	v := u.WithInterval(iv(2, 3))
	if !u.EqualFunc(v) {
		t.Error("EqualFunc must ignore intervals")
	}
	g := MFace{Outer: translatingMCycle(sqRing(0, 0, 5), 1, 0)}
	w := MustURegion(iv(0, 1), g)
	if u.EqualFunc(w) {
		t.Error("different faces equal")
	}
}

func TestUPointInsideURegionStatic(t *testing.T) {
	// Static square, point flying straight through it.
	ur := MustURegion(iv(0, 10), MFace{Outer: translatingMCycle(sqRing(4, -2, 4), 0, 0)})
	up, _ := UPointBetween(iv(0, 10), geom.Pt(0, 0), geom.Pt(10, 0))
	ubs := UPointInsideURegion(nil, up, ur)
	// Crossings at x=4 (t=4) and x=8 (t=8): false before, true inside,
	// false after.
	if len(ubs) != 3 {
		t.Fatalf("units = %v", ubs)
	}
	if ubs[0].V || !ubs[1].V || ubs[2].V {
		t.Errorf("values = %v %v %v", ubs[0].V, ubs[1].V, ubs[2].V)
	}
	if ubs[1].Iv.Start != 4 || ubs[1].Iv.End != 8 || !ubs[1].Iv.LC || !ubs[1].Iv.RC {
		t.Errorf("inside interval = %v (want [4, 8])", ubs[1].Iv)
	}
	if ubs[0].Iv.RC || ubs[2].Iv.LC {
		t.Error("false intervals must be open toward the crossing")
	}
}

func TestUPointInsideURegionMoving(t *testing.T) {
	// Region moving right at speed 1, point moving right at speed 2
	// starting behind: it catches up, passes through, and exits.
	ur := MustURegion(iv(0, 20), MFace{Outer: translatingMCycle(sqRing(10, -5, 10), 1, 0)})
	up, _ := UPointBetween(iv(0, 20), geom.Pt(0, 0), geom.Pt(40, 0))
	ubs := UPointInsideURegion(nil, up, ur)
	// Catch-up: point at 2t, region spans [10+t, 20+t]; enter when
	// 2t = 10+t → t=10; exit when 2t = 20+t → t=20 (the end).
	if len(ubs) != 2 {
		t.Fatalf("units = %v", ubs)
	}
	if ubs[0].V || !ubs[1].V {
		t.Errorf("values wrong: %v", ubs)
	}
	if ubs[1].Iv.Start != 10 || ubs[1].Iv.End != 20 {
		t.Errorf("inside = %v", ubs[1].Iv)
	}
}

func TestUPointInsideURegionNeverInside(t *testing.T) {
	ur := MustURegion(iv(0, 10), MFace{Outer: translatingMCycle(sqRing(100, 100, 5), 0, 0)})
	up, _ := UPointBetween(iv(0, 10), geom.Pt(0, 0), geom.Pt(1, 1))
	ubs := UPointInsideURegion(nil, up, ur)
	if len(ubs) != 1 || ubs[0].V {
		t.Fatalf("units = %v", ubs)
	}
	if ubs[0].Iv != iv(0, 10) {
		t.Errorf("interval = %v", ubs[0].Iv)
	}
}

func TestUPointInsideURegionAlwaysInside(t *testing.T) {
	ur := MustURegion(iv(0, 10), MFace{Outer: translatingMCycle(sqRing(-100, -100, 200), 0, 0)})
	up, _ := UPointBetween(iv(2, 8), geom.Pt(0, 0), geom.Pt(1, 1))
	ubs := UPointInsideURegion(nil, up, ur)
	if len(ubs) != 1 || !ubs[0].V {
		t.Fatalf("units = %v", ubs)
	}
	if ubs[0].Iv != iv(2, 8) {
		t.Errorf("interval = %v (intersection of unit intervals)", ubs[0].Iv)
	}
}

func TestUPointInsideURegionWithHole(t *testing.T) {
	// Point flies through a region with a hole: inside, hole (outside),
	// inside again.
	ur := MustURegion(iv(0, 12), MFace{
		Outer: translatingMCycle(sqRing(1, -4, 10), 0, 0),
		Holes: []MCycle{translatingMCycle(sqRing(4, -2, 4), 0, 0)},
	})
	up, _ := UPointBetween(iv(0, 12), geom.Pt(0, 0), geom.Pt(12, 0))
	ubs := UPointInsideURegion(nil, up, ur)
	// Crossings at x=1, 4, 8, 11 → t the same (unit speed).
	wantV := []bool{false, true, false, true, false}
	if len(ubs) != len(wantV) {
		t.Fatalf("units = %v", ubs)
	}
	for i, u := range ubs {
		if u.V != wantV[i] {
			t.Errorf("piece %d = %v, want %v (iv %v)", i, u.V, wantV[i], u.Iv)
		}
	}
	// Hole piece is open, inside pieces closed.
	if ubs[2].Iv.LC || ubs[2].Iv.RC {
		t.Error("hole interval must be open")
	}
	if !ubs[1].Iv.LC || !ubs[1].Iv.RC {
		t.Error("inside intervals must be closed")
	}
}

func TestUPointInsideDiagonal(t *testing.T) {
	// Diagonal flight through a moving diamond — checks non-axis-aligned
	// stabbing.
	diamond := []geom.Point{geom.Pt(5, 0), geom.Pt(10, 5), geom.Pt(5, 10), geom.Pt(0, 5)}
	ur := MustURegion(iv(0, 10), MFace{Outer: translatingMCycle(diamond, 0.5, 0)})
	up, _ := UPointBetween(iv(0, 10), geom.Pt(0, 0), geom.Pt(10, 10))
	ubs := UPointInsideURegion(nil, up, ur)
	var trueDur float64
	for _, u := range ubs {
		if u.V {
			trueDur += u.Iv.Duration()
		}
	}
	if trueDur <= 0 {
		t.Fatalf("no inside time found: %v", ubs)
	}
	// Verify against dense sampling.
	var sampled float64
	const steps = 10000
	for k := 0; k <= steps; k++ {
		tt := temporal.Instant(10 * float64(k) / steps)
		if pointInRegionAt(up.M, ur, tt) {
			sampled += 10.0 / steps
		}
	}
	if math.Abs(trueDur-sampled) > 0.01 {
		t.Errorf("inside duration %v vs sampled %v", trueDur, sampled)
	}
}
