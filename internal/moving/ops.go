package moving

import (
	"context"
	"slices"

	"movingdb/internal/geom"
	"movingdb/internal/mapping"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// This file holds the remaining lifted operations of the abstract model
// that combine the moving types defined in the other files.

// LessThan compares two moving reals pointwise and returns the moving
// bool of r < s where both are defined. The comparison is exact for the
// closed cases of the ureal class: polynomial vs polynomial (the
// difference is a quadratic), root vs root (both sides non-negative, so
// comparing the radicands decides), and root vs constant. Pairs outside
// these cases (root vs non-constant polynomial would need quartic root
// isolation) report ok == false.
func (r MReal) LessThan(s MReal) (MBool, bool) {
	var bld mapping.Builder[units.UBool]
	ru, su := r.M.Units(), s.M.Units()
	b := 0 // as in MPoint.Distance
	for a := range ru {
		ia := ru[a].Iv
		if b < len(su) && su[b].Iv.RDisjoint(ia) {
			if b++; b < len(su) && su[b].Iv.RDisjoint(ia) {
				b = temporal.Seek(su, b+1, ia, units.UReal.Interval)
			}
		}
		if b == len(su) {
			break
		}
		for k := b; k < len(su) && !ia.RDisjoint(su[k].Iv); k++ {
			b = k
			iv, _ := ia.Intersect(su[k].Iv)
			if !appendLess(&bld, ru[a].WithInterval(iv), su[k].WithInterval(iv)) {
				return MBool{}, false
			}
		}
	}
	return MBool{M: bld.MustBuild()}, true
}

// appendLess is LessThan's unit kernel: it appends the units of a < b
// for two units on the same interval, in temporal order, and reports
// false outside the closed comparison cases.
func appendLess(bld *mapping.Builder[units.UBool], a, b units.UReal) bool {
	diff, ok := comparableDiff(a, b)
	if !ok {
		return false
	}
	less, equal, greater := diff.CmpIntervals(0)
	type piece struct {
		iv temporal.Interval
		v  bool
	}
	var ps []piece
	for _, iv := range less {
		ps = append(ps, piece{iv, true})
	}
	for _, iv := range equal {
		ps = append(ps, piece{iv, false})
	}
	for _, iv := range greater {
		ps = append(ps, piece{iv, false})
	}
	// The pieces are disjoint; order them temporally.
	slices.SortFunc(ps, func(a, b piece) int { return a.iv.Compare(b.iv) })
	for _, p := range ps {
		bld.Append(units.UBool{Iv: p.iv, V: p.v})
	}
	return true
}

// comparableDiff returns a polynomial ureal whose sign equals the sign
// of a − b on the common interval, for the closed comparison cases.
func comparableDiff(a, b units.UReal) (units.UReal, bool) {
	switch {
	case !a.Root && !b.Root:
		return units.UReal{Iv: a.Iv, A: a.A - b.A, B: a.B - b.B, C: a.C - b.C}, true
	case a.Root && b.Root:
		// √p vs √q with p, q ≥ 0 on the interval: sign(√p − √q) =
		// sign(p − q).
		return units.UReal{Iv: a.Iv, A: a.A - b.A, B: a.B - b.B, C: a.C - b.C}, true
	//molint:ignore float-eq representation classification: a ureal is a constant iff its quadratic and linear coefficients are stored as exact zeros
	case a.Root && b.A == 0 && b.B == 0:
		// √p vs constant c.
		c := b.C
		if c < 0 {
			// √p ≥ 0 > c everywhere: a constant positive difference.
			return units.UReal{Iv: a.Iv, C: 1}, true
		}
		return units.UReal{Iv: a.Iv, A: a.A, B: a.B, C: a.C - c*c}, true
	//molint:ignore float-eq representation classification: a ureal is a constant iff its quadratic and linear coefficients are stored as exact zeros
	case b.Root && a.A == 0 && a.B == 0:
		d, ok := comparableDiff(b, a)
		if !ok {
			return units.UReal{}, false
		}
		neg, _ := d.Neg()
		return neg, true
	}
	return units.UReal{}, false
}

// TravelledDistance returns the total distance travelled over the
// definition time (the integral of speed) — unlike Length, repeated
// traversals of the same path count every time.
func (p MPoint) TravelledDistance() float64 {
	return p.Speed().Integral()
}

// Count returns the number of member points over time as a moving int —
// a lifted aggregate over the moving point set.
func (p MPoints) Count() MInt {
	var bld mapping.Builder[units.UInt]
	for _, u := range p.M.Units() {
		bld.Append(units.UInt{Iv: u.Iv, V: int64(u.Len())})
	}
	return MInt{M: bld.MustBuild()}
}

// Initial returns the (instant, region) snapshot at the start of the
// definition time; ok is false for the empty moving region.
func (r MRegion) Initial() (temporal.Instant, spatial.Region, bool) {
	u, ok := r.M.InitialUnit()
	if !ok {
		return 0, spatial.Region{}, false
	}
	snap, _ := u.EvalAt(u.Iv.Start)
	return u.Iv.Start, snap, true
}

// Final returns the (instant, region) snapshot at the end of the
// definition time; ok is false for the empty moving region.
func (r MRegion) Final() (temporal.Instant, spatial.Region, bool) {
	u, ok := r.M.FinalUnit()
	if !ok {
		return 0, spatial.Region{}, false
	}
	snap, _ := u.EvalAt(u.Iv.End)
	return u.Iv.End, snap, true
}

// AtRegion restricts the moving point to the times it lies inside the
// static region — at(mpoint, region) of the abstract model.
func (p MPoint) AtRegion(r spatial.Region) MPoint {
	return p.When(p.InsideRegion(r))
}

// Always reports whether the moving bool is true throughout its
// definition time (false for the nowhere-defined value).
func (b MBool) Always() bool {
	if b.M.IsEmpty() {
		return false
	}
	for _, u := range b.M.Units() {
		if !u.V {
			return false
		}
	}
	return true
}

// Sometimes reports whether the moving bool is true at some instant.
func (b MBool) Sometimes() bool {
	for _, u := range b.M.Units() {
		if u.V {
			return true
		}
	}
	return false
}

// TrueDuration returns the total time during which the moving bool is
// true.
func (b MBool) TrueDuration() float64 { return b.WhenTrue().Duration() }

// Intersects returns the moving bool of "the two moving regions share a
// point" — the lifted intersects predicate, computed per refinement
// interval with the exact critical-instant kernel.
func (r MRegion) Intersects(s MRegion) MBool {
	b, _ := r.IntersectsCtx(context.Background(), s)
	return b
}

// IntersectsCtx is Intersects with cooperative cancellation along the
// refinement partition, for deadline-bounded query serving.
func (r MRegion) IntersectsCtx(ctx context.Context, s MRegion) (MBool, error) {
	var bld mapping.Builder[units.UBool]
	ru, su := r.M.Units(), s.M.Units()
	var pieces []units.UBool
	b, i := 0, 0 // as in MPoint.InsideCtx
	for a := range ru {
		ia := ru[a].Iv
		if b < len(su) && su[b].Iv.RDisjoint(ia) {
			if b++; b < len(su) && su[b].Iv.RDisjoint(ia) {
				b = temporal.Seek(su, b+1, ia, units.URegion.Interval)
			}
		}
		if b == len(su) {
			break
		}
		for k := b; k < len(su) && !ia.RDisjoint(su[k].Iv); k, i = k+1, i+1 {
			b = k
			if err := cancelCheck(ctx, i); err != nil {
				return MBool{}, err
			}
			iv, _ := ia.Intersect(su[k].Iv)
			pieces = units.URegionIntersects(pieces[:0], ru[a].WithInterval(iv), su[k].WithInterval(iv))
			for _, piece := range pieces {
				bld.Append(piece)
			}
		}
	}
	return MBool{M: bld.MustBuild()}, nil
}

// Length returns the time-dependent total segment length of the moving
// line as a moving real when representable: like the region perimeter,
// a sum of square roots of distinct quadratics is outside the ureal
// class, so ok is false unless every unit translates rigidly (constant
// lengths). Use MLine.LengthAt for exact pointwise evaluation otherwise.
func (l MLine) Length() (MReal, bool) {
	var bld mapping.Builder[units.UReal]
	for _, u := range l.M.Units() {
		var total float64
		for _, g := range u.Ms {
			d1x, d1y := g.E.X1-g.S.X1, g.E.Y1-g.S.Y1
			//molint:ignore float-eq rigid-translation classification must be exact: any nonzero relative velocity makes the length non-constant and unrepresentable as a ureal
			if d1x != 0 || d1y != 0 {
				return MReal{}, false
			}
			p, q := g.Eval(u.Iv.Start)
			total += p.Dist(q)
		}
		bld.Append(units.ConstUReal(u.Iv, total))
	}
	return MReal{M: bld.MustBuild()}, true
}

// Locations returns the point parts of the spatial projection of the
// moving point: the positions of its resting units (moving units
// project to segments, collected by Trajectory) — together the two
// operations form the projection into range the abstract model defines.
func (p MPoint) Locations() spatial.Points {
	var pts []geom.Point
	for _, u := range p.M.Units() {
		if u.M.Velocity() == (geom.Point{}) {
			pts = append(pts, u.StartPoint())
		}
	}
	return spatial.NewPoints(pts...)
}

// Min returns the minimum value of the moving int over its definition
// time; ok is false for the empty value.
func (b MInt) Min() (int64, bool) {
	if b.M.IsEmpty() {
		return 0, false
	}
	best := b.M.Units()[0].V
	for _, u := range b.M.Units() {
		if u.V < best {
			best = u.V
		}
	}
	return best, true
}

// Max returns the maximum value of the moving int; ok is false for the
// empty value.
func (b MInt) Max() (int64, bool) {
	if b.M.IsEmpty() {
		return 0, false
	}
	best := b.M.Units()[0].V
	for _, u := range b.M.Units() {
		if u.V > best {
			best = u.V
		}
	}
	return best, true
}

// AtPoints restricts the moving point to the times it coincides with
// one of the given points — atpoints of the abstract model.
func (p MPoint) AtPoints(ps spatial.Points) MPoint {
	var collected []units.UPoint
	for _, u := range p.M.Units() {
		if u.M.Velocity() == (geom.Point{}) {
			if ps.Contains(u.StartPoint()) {
				collected = append(collected, u)
			}
			continue
		}
		for _, pt := range ps.Slice() {
			if t, ok := u.Passes(pt); ok {
				collected = append(collected, u.WithInterval(temporal.AtInstant(t)))
			}
		}
	}
	// Restrictions of one unit to several points may be out of order;
	// sort by interval start before assembling.
	for i := 1; i < len(collected); i++ {
		for j := i; j > 0 && collected[j].Iv.Start < collected[j-1].Iv.Start; j-- {
			collected[j], collected[j-1] = collected[j-1], collected[j]
		}
	}
	var bld mapping.Builder[units.UPoint]
	for _, u := range collected {
		bld.Append(u)
	}
	return MPoint{M: bld.MustBuild()}
}
