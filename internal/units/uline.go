package units

import (
	"fmt"
	"slices"

	"movingdb/internal/geom"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
)

// ULine is the uline unit type (Section 3.2.6): a set of non-rotating
// moving segments whose evaluation is a valid line value (no collinear
// overlapping segments) at every instant of the open unit interval.
// Moving segments are stored in the lexicographic MSeg order.
type ULine struct {
	Iv temporal.Interval
	Ms []MSeg
}

// NewULine validates the uline carrier set constraints and returns the
// unit. The for-all-instants condition is decided exactly: the relation
// between two non-rotating moving segments can change only at the roots
// of (at most quadratic) polynomials, so checking the finitely many
// critical instants and one sample between each pair of consecutive
// critical instants covers the whole interval.
func NewULine(iv temporal.Interval, ms ...MSeg) (ULine, error) {
	if len(ms) == 0 {
		return ULine{}, fmt.Errorf("%w: uline needs at least one moving segment", ErrInvalidUnit)
	}
	sorted := make([]MSeg, len(ms))
	copy(sorted, ms)
	slices.SortFunc(sorted, MSeg.Cmp)
	u := ULine{Iv: iv, Ms: sorted}
	if err := u.Validate(); err != nil {
		return ULine{}, err
	}
	return u, nil
}

// MustULine is like NewULine but panics on invalid input.
func MustULine(iv temporal.Interval, ms ...MSeg) ULine {
	u, err := NewULine(iv, ms...)
	if err != nil {
		panic(err)
	}
	return u
}

// ULineUnchecked builds the unit without validation, for trusted
// construction paths such as workload generators.
func ULineUnchecked(iv temporal.Interval, ms []MSeg) ULine {
	sorted := make([]MSeg, len(ms))
	copy(sorted, ms)
	slices.SortFunc(sorted, MSeg.Cmp)
	return ULine{Iv: iv, Ms: sorted}
}

// Interval returns the unit interval.
func (u ULine) Interval() temporal.Interval { return u.Iv }

// WithInterval returns the same moving segments on a different
// (sub-)interval.
func (u ULine) WithInterval(iv temporal.Interval) ULine { return ULine{Iv: iv, Ms: u.Ms} }

// EqualFunc reports whether two units carry the same moving segments.
func (u ULine) EqualFunc(v ULine) bool { return slices.Equal(u.Ms, v.Ms) }

// Validate re-checks the carrier set constraints.
func (u ULine) Validate() error {
	for i := 1; i < len(u.Ms); i++ {
		if u.Ms[i].Cmp(u.Ms[i-1]) < 0 {
			return fmt.Errorf("%w: uline segments out of order", ErrInvalidUnit)
		}
	}
	for _, g := range u.Ms {
		if !g.Coplanar() {
			return fmt.Errorf("%w: rotating moving segment %v", ErrInvalidUnit, g)
		}
		r, ok, always := g.DegenerateTimes()
		if always {
			return fmt.Errorf("%w: permanently degenerate moving segment %v", ErrInvalidUnit, g)
		}
		if ok && u.Iv.ContainsOpen(temporal.Instant(r)) {
			return fmt.Errorf("%w: moving segment %v degenerates at t=%g inside the unit", ErrInvalidUnit, g, r)
		}
	}
	// Pairwise: no collinear overlap at any inner instant.
	for i := 0; i < len(u.Ms); i++ {
		for j := i + 1; j < len(u.Ms); j++ {
			if t, bad := overlapInstant(u.Ms[i], u.Ms[j], u.Iv); bad {
				return fmt.Errorf("%w: moving segments %v and %v overlap at t=%v", ErrInvalidUnit, u.Ms[i], u.Ms[j], t)
			}
		}
	}
	return nil
}

// overlapInstant reports an instant in the open unit interval at which
// the two moving segments are collinear and overlapping, if one exists.
func overlapInstant(g, h MSeg, iv temporal.Interval) (temporal.Instant, bool) {
	critical, _ := appendCriticalTimes(nil, g, h)
	for _, t := range criticalSamples(iv, critical) {
		sg, ok1 := g.EvalSeg(t)
		sh, ok2 := h.EvalSeg(t)
		if !ok1 || !ok2 {
			continue
		}
		if geom.Collinear(sg, sh) && geom.Overlap(sg, sh) {
			return t, true
		}
	}
	return 0, false
}

// Eval is the ι function for inner instants: the line value at time t.
// For the closed end points of the unit interval use EvalBoundary, which
// applies the merge-segs degeneracy cleanup.
func (u ULine) Eval(t temporal.Instant) spatial.Line {
	segs := make([]geom.Segment, 0, len(u.Ms))
	for _, g := range u.Ms {
		if s, ok := g.EvalSeg(t); ok {
			segs = append(segs, s)
		}
	}
	return spatial.LineUnchecked(segs)
}

// EvalBoundary evaluates the unit at an end point of its interval,
// applying the ι_s/ι_e cleanup of Section 3.2.6: degenerated segments
// are dropped and overlapping collinear segments merged into maximal
// ones (merge-segs).
func (u ULine) EvalBoundary(t temporal.Instant) spatial.Line {
	segs := make([]geom.Segment, 0, len(u.Ms))
	for _, g := range u.Ms {
		if s, ok := g.EvalSeg(t); ok {
			segs = append(segs, s)
		}
	}
	return spatial.MergeLine(segs...)
}

// EvalAt dispatches to Eval or EvalBoundary according to the position of
// t in the unit interval, implementing the extended semantics definition
// f_u of Section 3.2.6.
func (u ULine) EvalAt(t temporal.Instant) (spatial.Line, bool) {
	if !u.Iv.Contains(t) {
		return spatial.Line{}, false
	}
	if !u.Iv.IsDegenerate() && (t == u.Iv.Start || t == u.Iv.End) {
		return u.EvalBoundary(t), true
	}
	return u.Eval(t), true
}

// Cube returns the 3D bounding cube over the unit interval.
func (u ULine) Cube() geom.Cube {
	r := geom.EmptyRect()
	for _, g := range u.Ms {
		for _, t := range []temporal.Instant{u.Iv.Start, u.Iv.End} {
			p, q := g.Eval(t)
			r = r.ExtendPoint(p).ExtendPoint(q)
		}
	}
	return geom.Cube{Rect: r, MinT: float64(u.Iv.Start), MaxT: float64(u.Iv.End)}
}

// Len returns the number of moving segments.
func (u ULine) Len() int { return len(u.Ms) }

// String renders the unit.
func (u ULine) String() string { return fmt.Sprintf("%v ↦ %d msegs", u.Iv, len(u.Ms)) }
