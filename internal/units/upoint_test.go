package units

import (
	"math"
	"testing"
	"testing/quick"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
)

func TestMPointThrough(t *testing.T) {
	m, err := MPointThrough(0, geom.Pt(0, 0), 10, geom.Pt(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Eval(0); got != geom.Pt(0, 0) {
		t.Errorf("Eval(0) = %v", got)
	}
	if got := m.Eval(10); got != geom.Pt(10, 20) {
		t.Errorf("Eval(10) = %v", got)
	}
	if got := m.Eval(5); got != geom.Pt(5, 10) {
		t.Errorf("Eval(5) = %v", got)
	}
	if m.Velocity() != geom.Pt(1, 2) {
		t.Errorf("Velocity = %v", m.Velocity())
	}
	if math.Abs(m.Speed()-math.Sqrt(5)) > 1e-12 {
		t.Errorf("Speed = %v", m.Speed())
	}
	if _, err := MPointThrough(3, geom.Pt(0, 0), 3, geom.Pt(1, 1)); err == nil {
		t.Error("equal instants accepted")
	}
}

func TestMPointThroughProperty(t *testing.T) {
	f := func(px, py, qx, qy int8, t0, t1 uint8) bool {
		if t0 == t1 {
			return true
		}
		p, q := geom.Pt(float64(px), float64(py)), geom.Pt(float64(qx), float64(qy))
		m, err := MPointThrough(temporal.Instant(t0), p, temporal.Instant(t1), q)
		if err != nil {
			return false
		}
		return geom.ApproxEqPoint(m.Eval(temporal.Instant(t0)), p) &&
			geom.ApproxEqPoint(m.Eval(temporal.Instant(t1)), q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMPointMeetTimes(t *testing.T) {
	a, _ := MPointThrough(0, geom.Pt(0, 0), 10, geom.Pt(10, 0))
	b, _ := MPointThrough(0, geom.Pt(10, 0), 10, geom.Pt(0, 0))
	ts, ok, always := a.meetTimes(b)
	if always || !ok || ts != 5 {
		t.Errorf("meetTimes = %v, %v, %v", ts, ok, always)
	}
	// Parallel, never meeting.
	c, _ := MPointThrough(0, geom.Pt(0, 1), 10, geom.Pt(10, 1))
	ts, ok, always = a.meetTimes(c)
	if always || ok {
		t.Errorf("parallel meetTimes = %v", ts)
	}
	// Identical motions.
	_, _, always = a.meetTimes(a)
	if !always {
		t.Error("identical motions: always expected")
	}
	// Same x-path but different y: meet only where both coordinates agree.
	d, _ := MPointThrough(0, geom.Pt(0, 5), 10, geom.Pt(10, 5))
	ts, ok, always = a.meetTimes(d)
	if always || ok {
		t.Errorf("never-meeting = %v", ts)
	}
}

func TestUPointBasics(t *testing.T) {
	u, err := UPointBetween(iv(0, 10), geom.Pt(0, 0), geom.Pt(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if u.StartPoint() != geom.Pt(0, 0) || u.EndPoint() != geom.Pt(10, 10) {
		t.Error("endpoints wrong")
	}
	if got := u.Eval(5); got != geom.Pt(5, 5) {
		t.Errorf("Eval(5) = %v", got)
	}
	s, ok := u.TrajectorySegment()
	if !ok || s != geom.Seg(0, 0, 10, 10) {
		t.Errorf("trajectory = %v, %v", s, ok)
	}
	st := StaticUPoint(iv(0, 1), geom.Pt(3, 3))
	if _, ok := st.TrajectorySegment(); ok {
		t.Error("static point has no trajectory segment")
	}
	cube := u.Cube()
	if cube.MinT != 0 || cube.MaxT != 10 || cube.Rect.MaxX != 10 {
		t.Errorf("Cube = %+v", cube)
	}
}

func TestUPointDistance(t *testing.T) {
	// Two points approaching head-on at constant speed: distance is
	// |20−4t| — as a √quadratic.
	a, _ := UPointBetween(iv(0, 10), geom.Pt(0, 0), geom.Pt(20, 0))
	b, _ := UPointBetween(iv(0, 10), geom.Pt(20, 0), geom.Pt(0, 0))
	d := a.DistanceTo(b, iv(0, 10))
	if !d.Root {
		t.Fatal("distance must be a root unit")
	}
	for _, c := range []struct {
		t    temporal.Instant
		want float64
	}{{0, 20}, {5, 0}, {10, 20}, {2.5, 10}} {
		if got := d.Eval(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("distance(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	mn, at := d.Min()
	if math.Abs(mn) > 1e-9 || at != 5 {
		t.Errorf("min distance = %v at %v", mn, at)
	}
	// Distance to a fixed point.
	dp := a.DistanceToPoint(geom.Pt(0, 30), iv(0, 10))
	if got := dp.Eval(0); got != 30 {
		t.Errorf("distance to point at 0 = %v", got)
	}
	if got := dp.Eval(10); math.Abs(got-math.Hypot(20, 30)) > 1e-9 {
		t.Errorf("distance to point at 10 = %v", got)
	}
}

func TestUPointDistanceProperty(t *testing.T) {
	// The ureal distance agrees with direct pointwise computation.
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8, frac uint8) bool {
		a, err1 := UPointBetween(iv(0, 10), geom.Pt(float64(ax), float64(ay)), geom.Pt(float64(bx), float64(by)))
		b, err2 := UPointBetween(iv(0, 10), geom.Pt(float64(cx), float64(cy)), geom.Pt(float64(dx), float64(dy)))
		if err1 != nil || err2 != nil {
			return true
		}
		d := a.DistanceTo(b, iv(0, 10))
		t0 := temporal.Instant(10 * float64(frac) / 255)
		want := a.Eval(t0).Dist(b.Eval(t0))
		return math.Abs(d.Eval(t0)-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUPointPasses(t *testing.T) {
	u, _ := UPointBetween(iv(0, 10), geom.Pt(0, 0), geom.Pt(10, 10))
	at, ok := u.Passes(geom.Pt(3, 3))
	if !ok || at != 3 {
		t.Errorf("Passes = %v, %v", at, ok)
	}
	if _, ok := u.Passes(geom.Pt(3, 4)); ok {
		t.Error("off-path point passed")
	}
	if _, ok := u.Passes(geom.Pt(11, 11)); ok {
		t.Error("beyond interval point passed")
	}
	st := StaticUPoint(iv(0, 1), geom.Pt(2, 2))
	if at, ok := st.Passes(geom.Pt(2, 2)); !ok || at != 0 {
		t.Error("static passes wrong")
	}
}

func TestMSegValidation(t *testing.T) {
	s, _ := MPointThrough(0, geom.Pt(0, 0), 1, geom.Pt(1, 0))
	e, _ := MPointThrough(0, geom.Pt(2, 0), 1, geom.Pt(3, 0))
	if _, err := NewMSeg(s, e); err != nil {
		t.Errorf("translating segment rejected: %v", err)
	}
	// Rotating: endpoint velocities not compatible with fixed direction.
	e2, _ := MPointThrough(0, geom.Pt(2, 0), 1, geom.Pt(2, 5))
	if _, err := NewMSeg(s, e2); err == nil {
		t.Error("rotating segment accepted")
	}
	if _, err := NewMSeg(s, s); err == nil {
		t.Error("degenerate mseg accepted")
	}
	// Scaling along the segment direction is fine (coplanar).
	e3, _ := MPointThrough(0, geom.Pt(2, 0), 1, geom.Pt(5, 0))
	if _, err := NewMSeg(s, e3); err != nil {
		t.Errorf("scaling segment rejected: %v", err)
	}
}

func TestMSegEvalAndDegenerate(t *testing.T) {
	// Endpoints converge at t=2.
	g, err := MSegThrough(0, geom.Pt(0, 0), geom.Pt(4, 0), 2, geom.Pt(2, 0), geom.Pt(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := g.EvalSeg(0); !ok || s != geom.Seg(0, 0, 4, 0) {
		t.Errorf("EvalSeg(0) = %v, %v", s, ok)
	}
	if s, ok := g.EvalSeg(1); !ok || s != geom.Seg(1, 0, 3, 0) {
		t.Errorf("EvalSeg(1) = %v, %v", s, ok)
	}
	if _, ok := g.EvalSeg(2); ok {
		t.Error("degenerate instant not detected by EvalSeg")
	}
	ts, ok, always := g.DegenerateTimes()
	if always || !ok || ts != 2 {
		t.Errorf("DegenerateTimes = %v, %v, %v", ts, ok, always)
	}
}

func TestUPointsValidation(t *testing.T) {
	a, _ := MPointThrough(0, geom.Pt(0, 0), 10, geom.Pt(10, 0))
	b, _ := MPointThrough(0, geom.Pt(10, 0), 10, geom.Pt(0, 0)) // meets a at t=5
	c, _ := MPointThrough(0, geom.Pt(0, 5), 10, geom.Pt(10, 5)) // parallel to a

	if _, err := NewUPoints(iv(0, 10), a, c); err != nil {
		t.Errorf("valid upoints rejected: %v", err)
	}
	if _, err := NewUPoints(iv(0, 10), a, b); err == nil {
		t.Error("crossing motions accepted")
	}
	// The meet at t=5 is allowed if it is an interval end point.
	if _, err := NewUPoints(iv(0, 5), a, b); err != nil {
		t.Errorf("meet at closed end rejected: %v", err)
	}
	if _, err := NewUPoints(iv(5, 10), a, b); err != nil {
		t.Errorf("meet at start rejected: %v", err)
	}
	// Degenerate interval: points must differ at the single instant.
	if _, err := NewUPoints(temporal.AtInstant(5), a, b); err == nil {
		t.Error("coinciding points at degenerate instant accepted")
	}
	if _, err := NewUPoints(temporal.AtInstant(3), a, b); err != nil {
		t.Errorf("distinct points at degenerate instant rejected: %v", err)
	}
	if _, err := NewUPoints(iv(0, 1)); err == nil {
		t.Error("empty upoints accepted")
	}
	if _, err := NewUPoints(iv(0, 10), a, a); err == nil {
		t.Error("identical motions accepted")
	}
}

func TestUPointsEval(t *testing.T) {
	a, _ := MPointThrough(0, geom.Pt(0, 0), 10, geom.Pt(10, 0))
	c, _ := MPointThrough(0, geom.Pt(0, 5), 10, geom.Pt(10, 5))
	u := MustUPoints(iv(0, 10), a, c)
	ps := u.Eval(4)
	if ps.Len() != 2 || !ps.Contains(geom.Pt(4, 0)) || !ps.Contains(geom.Pt(4, 5)) {
		t.Errorf("Eval = %v", ps)
	}
	if u.Len() != 2 {
		t.Errorf("Len = %d", u.Len())
	}
	cube := u.Cube()
	if cube.Rect.MaxY != 5 || cube.MaxT != 10 {
		t.Errorf("Cube = %+v", cube)
	}
}
