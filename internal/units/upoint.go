package units

import (
	"fmt"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
)

// UPoint is the upoint unit type (Section 3.2.6): an interval paired
// with a linearly moving point. It is a fixed size unit.
type UPoint struct {
	Iv temporal.Interval
	M  MPoint
}

// NewUPoint returns the upoint unit with motion m over iv.
func NewUPoint(iv temporal.Interval, m MPoint) UPoint { return UPoint{Iv: iv, M: m} }

// UPointBetween returns the unit moving linearly from p at iv.Start to q
// at iv.End. The interval must not be degenerate.
func UPointBetween(iv temporal.Interval, p, q geom.Point) (UPoint, error) {
	m, err := MPointThrough(iv.Start, p, iv.End, q)
	if err != nil {
		return UPoint{}, err
	}
	return UPoint{Iv: iv, M: m}, nil
}

// StaticUPoint returns the unit resting at p over iv.
func StaticUPoint(iv temporal.Interval, p geom.Point) UPoint {
	return UPoint{Iv: iv, M: StaticMPoint(p)}
}

// Interval returns the unit interval.
func (u UPoint) Interval() temporal.Interval { return u.Iv }

// WithInterval returns the same motion on a different interval.
func (u UPoint) WithInterval(iv temporal.Interval) UPoint {
	u.Iv = iv
	return u
}

// EqualFunc reports whether two units have the same motion.
func (u UPoint) EqualFunc(v UPoint) bool { return u.M == v.M }

// Eval is the ι function: the position at time t.
func (u UPoint) Eval(t temporal.Instant) geom.Point { return u.M.Eval(t) }

// StartPoint returns the position at the start of the unit interval.
func (u UPoint) StartPoint() geom.Point { return u.M.Eval(u.Iv.Start) }

// EndPoint returns the position at the end of the unit interval.
func (u UPoint) EndPoint() geom.Point { return u.M.Eval(u.Iv.End) }

// BBox returns the spatial bounding box over the unit interval; the
// extremes are attained at the interval ends because the motion is
// linear.
func (u UPoint) BBox() geom.Rect { return u.M.BBox(u.Iv) }

// Cube returns the 3D bounding cube stored with the unit (Section 4.2).
func (u UPoint) Cube() geom.Cube {
	return geom.Cube{Rect: u.BBox(), MinT: float64(u.Iv.Start), MaxT: float64(u.Iv.End)}
}

// TrajectorySegment returns the spatial projection of the unit: the
// segment from start to end position; ok is false when the point rests
// (the projection is a single point, contributing to the points part of
// the projection rather than the line part).
func (u UPoint) TrajectorySegment() (geom.Segment, bool) {
	p, q := u.StartPoint(), u.EndPoint()
	if p == q {
		return geom.Segment{}, false
	}
	s, err := geom.NewSegment(p, q)
	if err != nil {
		return geom.Segment{}, false
	}
	return s, true
}

// DistanceTo returns the time-dependent Euclidean distance between two
// upoint units as a ureal over the given interval — the square root of a
// quadratic, the paper's motivating example for the ureal function
// class.
func (u UPoint) DistanceTo(v UPoint, iv temporal.Interval) UReal {
	dx0, dx1 := u.M.X0-v.M.X0, u.M.X1-v.M.X1
	dy0, dy1 := u.M.Y0-v.M.Y0, u.M.Y1-v.M.Y1
	// |d(t)|² = (dx0+dx1·t)² + (dy0+dy1·t)²
	a := dx1*dx1 + dy1*dy1
	b := 2 * (dx0*dx1 + dy0*dy1)
	c := dx0*dx0 + dy0*dy0
	return UReal{Iv: iv, A: a, B: b, C: c, Root: true}
}

// DistanceToPoint returns the time-dependent distance to a fixed point.
func (u UPoint) DistanceToPoint(p geom.Point, iv temporal.Interval) UReal {
	return u.DistanceTo(StaticUPoint(iv, p), iv)
}

// SpeedUReal returns the (constant) speed as a ureal unit.
func (u UPoint) SpeedUReal() UReal { return ConstUReal(u.Iv, u.M.Speed()) }

// Passes reports whether the unit's point is at p at some instant of the
// unit interval, and returns the earliest such instant.
func (u UPoint) Passes(p geom.Point) (temporal.Instant, bool) {
	r, ok, always := u.M.meetTimes(StaticMPoint(p))
	if always {
		return u.Iv.Start, true
	}
	if t := temporal.Instant(r); ok && u.Iv.Contains(t) {
		return t, true
	}
	return 0, false
}

// String renders the unit.
func (u UPoint) String() string { return fmt.Sprintf("%v ↦ %v", u.Iv, u.M) }
