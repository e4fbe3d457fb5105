package units

import (
	"errors"
	"fmt"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
)

// MPoint is a linearly moving point, the carrier set
// MPoint = {(x0, x1, y0, y1)} of Section 3.2.6: a line in (x, y, t)
// space, evaluated as ι(t) = (x0 + x1·t, y0 + y1·t).
type MPoint struct {
	X0, X1, Y0, Y1 float64
}

// ErrInvalidUnit reports a violation of a unit carrier set constraint.
var ErrInvalidUnit = errors.New("units: invalid unit")

// MPointThrough returns the linear motion passing through point p at
// time t0 and point q at time t1. It requires t0 ≠ t1.
func MPointThrough(t0 temporal.Instant, p geom.Point, t1 temporal.Instant, q geom.Point) (MPoint, error) {
	if t0 == t1 {
		return MPoint{}, fmt.Errorf("%w: motion through two points needs distinct instants", ErrInvalidUnit)
	}
	dt := float64(t1 - t0)
	vx := (q.X - p.X) / dt
	vy := (q.Y - p.Y) / dt
	return MPoint{
		X0: p.X - vx*float64(t0), X1: vx,
		Y0: p.Y - vy*float64(t0), Y1: vy,
	}, nil
}

// StaticMPoint returns the motion that stays at p forever.
func StaticMPoint(p geom.Point) MPoint { return MPoint{X0: p.X, Y0: p.Y} }

// Eval is the ι function: the position at time t.
func (m MPoint) Eval(t temporal.Instant) geom.Point {
	return geom.Pt(m.X0+m.X1*float64(t), m.Y0+m.Y1*float64(t))
}

// BBox returns the spatial bounding box of the motion over iv, from
// the positions at its two ends: the box of the unit
// UPoint{Iv: iv, M: m}, which a filter takes for a piece of a unit
// without building the sliced unit.
func (m MPoint) BBox(iv temporal.Interval) geom.Rect {
	p, q := m.Eval(iv.Start), m.Eval(iv.End)
	return geom.Rect{MinX: min(p.X, q.X), MinY: min(p.Y, q.Y), MaxX: max(p.X, q.X), MaxY: max(p.Y, q.Y)}
}

// Velocity returns the constant velocity vector (X1, Y1).
func (m MPoint) Velocity() geom.Point { return geom.Pt(m.X1, m.Y1) }

// Speed returns the constant scalar speed.
func (m MPoint) Speed() float64 { return m.Velocity().Norm() }

// Cmp orders MPoint values lexicographically on (X0, X1, Y0, Y1), the
// canonical storage order of upoints subarrays (Section 4.2).
func (m MPoint) Cmp(n MPoint) int {
	for _, d := range [4]float64{m.X0 - n.X0, m.X1 - n.X1, m.Y0 - n.Y0, m.Y1 - n.Y1} {
		if d < 0 {
			return -1
		}
		if d > 0 {
			return 1
		}
	}
	return 0
}

// meetTimes returns the instant at which the motions m and n coincide:
// none, one (ok), or always (identical motion).
func (m MPoint) meetTimes(n MPoint) (t float64, ok, always bool) {
	xs, nx, xAll := QuadRoots(0, m.X1-n.X1, m.X0-n.X0)
	ys, ny, yAll := QuadRoots(0, m.Y1-n.Y1, m.Y0-n.Y0)
	switch {
	case xAll && yAll:
		return 0, false, true
	case xAll:
		return ys[0], ny > 0, false
	case yAll:
		return xs[0], nx > 0, false
	}
	// Both coordinates have an isolated solution time; they must agree.
	if nx > 0 && ny > 0 && geom.ApproxEq(xs[0], ys[0]) {
		return xs[0], true, false
	}
	return 0, false, false
}

// String formats the motion as "(x0+x1·t, y0+y1·t)".
func (m MPoint) String() string {
	return fmt.Sprintf("(%g%+g·t, %g%+g·t)", m.X0, m.X1, m.Y0, m.Y1)
}

// MSeg is a moving segment: a pair of coplanar 3D lines (Section 3.2.6).
// The coplanarity condition is exactly the paper's non-rotation
// constraint — the segment keeps its direction while it moves. S and E
// are the motions of the two endpoints.
type MSeg struct {
	S, E MPoint
}

// NewMSeg validates the MSeg carrier set constraints: the endpoint
// motions are distinct and coplanar (non-rotating).
func NewMSeg(s, e MPoint) (MSeg, error) {
	if s == e {
		return MSeg{}, fmt.Errorf("%w: degenerate moving segment (identical endpoint motions)", ErrInvalidUnit)
	}
	ms := MSeg{S: s, E: e}
	if !ms.Coplanar() {
		return MSeg{}, fmt.Errorf("%w: rotating moving segment (endpoint lines not coplanar)", ErrInvalidUnit)
	}
	return ms, nil
}

// MustMSeg is like NewMSeg but panics on invalid input.
func MustMSeg(s, e MPoint) MSeg {
	ms, err := NewMSeg(s, e)
	if err != nil {
		panic(err)
	}
	return ms
}

// MSegThrough builds the moving segment that interpolates segment
// (p0, q0) at time t0 to segment (p1, q1) at time t1, mapping p0→p1 and
// q0→q1. The result must satisfy the non-rotation constraint.
func MSegThrough(t0 temporal.Instant, p0, q0 geom.Point, t1 temporal.Instant, p1, q1 geom.Point) (MSeg, error) {
	s, err := MPointThrough(t0, p0, t1, p1)
	if err != nil {
		return MSeg{}, err
	}
	e, err := MPointThrough(t0, q0, t1, q1)
	if err != nil {
		return MSeg{}, err
	}
	return NewMSeg(s, e)
}

// Coplanar reports whether the two endpoint 3D lines are coplanar,
// which holds iff cross(e(0)−s(0), velocity difference) = 0 — the
// segment direction d(t) = d0 + d1·t stays on a fixed direction.
func (g MSeg) Coplanar() bool {
	d0 := geom.Pt(g.E.X0-g.S.X0, g.E.Y0-g.S.Y0)
	d1 := geom.Pt(g.E.X1-g.S.X1, g.E.Y1-g.S.Y1)
	return geom.ApproxZero(d0.Cross(d1))
}

// Eval is the ι function: the (possibly degenerate) segment at time t,
// returned as its two endpoints. Callers that need a canonical Seg value
// must check p ≠ q and order them.
func (g MSeg) Eval(t temporal.Instant) (p, q geom.Point) {
	return g.S.Eval(t), g.E.Eval(t)
}

// EvalSeg evaluates the moving segment at time t as a canonical
// segment; ok is false if the segment is degenerate at t.
func (g MSeg) EvalSeg(t temporal.Instant) (geom.Segment, bool) {
	return segmentBetween(g.Eval(t))
}

// segmentBetween returns the canonical segment from p to q; ok is false
// if the two coincide.
func segmentBetween(p, q geom.Point) (geom.Segment, bool) {
	if p == q {
		return geom.Segment{}, false
	}
	s, err := geom.NewSegment(p, q)
	if err != nil {
		return geom.Segment{}, false
	}
	return s, true
}

// DegenerateTimes returns the instant at which the two endpoints
// coincide (the segment collapses to a point): none, one, or always.
func (g MSeg) DegenerateTimes() (t float64, ok, always bool) {
	return g.S.meetTimes(g.E)
}

// Cmp orders moving segments lexicographically by their endpoint
// motions, the canonical subarray order of Section 4.2.
func (g MSeg) Cmp(h MSeg) int {
	if c := g.S.Cmp(h.S); c != 0 {
		return c
	}
	return g.E.Cmp(h.E)
}

// String renders the moving segment by its endpoint motions.
func (g MSeg) String() string { return fmt.Sprintf("[%v — %v]", g.S, g.E) }

// appendCriticalTimes appends to ts the instants where the geometric
// relation between two moving segments can change: an endpoint of one
// crosses the supporting line of the other (quadratic events), endpoints
// of the two segments meet (linear events), and either segment
// degenerates. Between consecutive critical times, static predicates
// such as p-intersect, touch or overlap are constant.
func appendCriticalTimes(ts []float64, g, h MSeg) (out []float64, alwaysCollinear bool) {
	// Endpoint-on-supporting-line events: cross(bE−bS, p−bS)(t) = 0 is a
	// quadratic in t for each endpoint motion p of the other segment.
	all := true
	online := func(b MSeg, p MPoint) {
		roots, n, a := supportCrossings(b, p)
		ts = append(ts, roots[:n]...)
		all = all && a
	}
	online(g, h.S)
	online(g, h.E)
	online(h, g.S)
	online(h, g.E)
	meet := func(p, q MPoint) {
		if t, ok, _ := p.meetTimes(q); ok {
			ts = append(ts, t)
		}
	}
	// Segment degeneracies.
	meet(g.S, g.E)
	meet(h.S, h.E)
	// Endpoint meeting events (linear).
	meet(g.S, h.S)
	meet(g.S, h.E)
	meet(g.E, h.S)
	meet(g.E, h.E)
	return ts, all
}

// supportCrossings returns the instants at which the moving point p lies
// on the supporting line of the moving segment b: the roots of
// cross(bE(t)−bS(t), p(t)−bS(t)), a quadratic in t.
func supportCrossings(b MSeg, p MPoint) (roots [2]float64, n int, all bool) {
	dx0, dx1 := b.E.X0-b.S.X0, b.E.X1-b.S.X1
	dy0, dy1 := b.E.Y0-b.S.Y0, b.E.Y1-b.S.Y1
	wx0, wx1 := p.X0-b.S.X0, p.X1-b.S.X1
	wy0, wy1 := p.Y0-b.S.Y0, p.Y1-b.S.Y1
	// cross = dx·wy − dy·wx, with dx(t) = dx0+dx1·t etc.
	qa := dx1*wy1 - dy1*wx1
	qb := dx0*wy1 + dx1*wy0 - dy0*wx1 - dy1*wx0
	qc := dx0*wy0 - dy0*wx0
	return QuadRoots(qa, qb, qc)
}
