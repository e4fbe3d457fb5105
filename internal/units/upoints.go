package units

import (
	"fmt"
	"slices"

	"movingdb/internal/geom"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
)

// UPoints is the upoints unit type (Section 3.2.6): a set of linearly
// moving points that never coincide during the open unit interval.
// Motions are stored in the lexicographic MPoint order, the canonical
// subarray order of Section 4.2.
type UPoints struct {
	Iv temporal.Interval
	Ms []MPoint
}

// NewUPoints validates the upoints carrier set constraints: at least one
// motion, and no two motions meeting inside the open interval (or at the
// single instant, for degenerate intervals). The check is exact: two
// linear motions can only meet at the roots of linear equations.
func NewUPoints(iv temporal.Interval, ms ...MPoint) (UPoints, error) {
	if len(ms) == 0 {
		return UPoints{}, fmt.Errorf("%w: upoints needs at least one motion", ErrInvalidUnit)
	}
	sorted := make([]MPoint, len(ms))
	copy(sorted, ms)
	slices.SortFunc(sorted, MPoint.Cmp)
	u := UPoints{Iv: iv, Ms: sorted}
	if err := u.Validate(); err != nil {
		return UPoints{}, err
	}
	return u, nil
}

// MustUPoints is like NewUPoints but panics on invalid input.
func MustUPoints(iv temporal.Interval, ms ...MPoint) UPoints {
	u, err := NewUPoints(iv, ms...)
	if err != nil {
		panic(err)
	}
	return u
}

// Interval returns the unit interval.
func (u UPoints) Interval() temporal.Interval { return u.Iv }

// WithInterval returns the same motions on a different interval. The
// caller is responsible for the new interval being a sub-interval of a
// validated one (motions that never meet on an interval never meet on
// its sub-intervals, so restriction is always safe).
func (u UPoints) WithInterval(iv temporal.Interval) UPoints {
	return UPoints{Iv: iv, Ms: u.Ms}
}

// EqualFunc reports whether two units carry the same motion set.
func (u UPoints) EqualFunc(v UPoints) bool { return slices.Equal(u.Ms, v.Ms) }

// Validate re-checks the carrier set constraints.
func (u UPoints) Validate() error {
	for i := 1; i < len(u.Ms); i++ {
		if u.Ms[i].Cmp(u.Ms[i-1]) < 0 {
			return fmt.Errorf("%w: upoints motions out of order", ErrInvalidUnit)
		}
	}
	for i := 0; i < len(u.Ms); i++ {
		for j := i + 1; j < len(u.Ms); j++ {
			r, ok, always := u.Ms[i].meetTimes(u.Ms[j])
			if always {
				return fmt.Errorf("%w: motions %v and %v identical", ErrInvalidUnit, u.Ms[i], u.Ms[j])
			}
			if ok && u.Iv.ContainsOpen(temporal.Instant(r)) {
				return fmt.Errorf("%w: motions %v and %v meet at t=%g inside the unit", ErrInvalidUnit, u.Ms[i], u.Ms[j], r)
			}
		}
	}
	return nil
}

// Eval is the ι function: the point set at time t.
func (u UPoints) Eval(t temporal.Instant) spatial.Points {
	pts := make([]geom.Point, 0, len(u.Ms))
	for _, m := range u.Ms {
		pts = append(pts, m.Eval(t))
	}
	return spatial.NewPoints(pts...)
}

// Cube returns the 3D bounding cube over the unit interval.
func (u UPoints) Cube() geom.Cube {
	r := geom.EmptyRect()
	for _, m := range u.Ms {
		r = r.ExtendPoint(m.Eval(u.Iv.Start))
		r = r.ExtendPoint(m.Eval(u.Iv.End))
	}
	return geom.Cube{Rect: r, MinT: float64(u.Iv.Start), MaxT: float64(u.Iv.End)}
}

// Len returns the number of moving points.
func (u UPoints) Len() int { return len(u.Ms) }

// String renders the unit.
func (u UPoints) String() string { return fmt.Sprintf("%v ↦ %v", u.Iv, u.Ms) }
