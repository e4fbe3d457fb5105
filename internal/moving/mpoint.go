package moving

import (
	"context"
	"fmt"

	"movingdb/internal/base"
	"movingdb/internal/geom"
	"movingdb/internal/mapping"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// MPoint is the moving point type: mapping(upoint).
type MPoint struct {
	M mapping.Mapping[units.UPoint]
}

// NewMPoint validates units and builds a moving point.
func NewMPoint(us ...units.UPoint) (MPoint, error) {
	m, err := mapping.New(us...)
	if err != nil {
		return MPoint{}, err
	}
	return MPoint{M: m}, nil
}

// MustMPoint is like NewMPoint but panics on invalid input.
func MustMPoint(us ...units.UPoint) MPoint {
	m, err := NewMPoint(us...)
	if err != nil {
		panic(err)
	}
	return m
}

// Sample is one trajectory observation: the object was at P at time T.
type Sample struct {
	T temporal.Instant
	P geom.Point
}

// MPointFromSamples builds a moving point from a time-ordered sequence
// of at least two observations, interpolating linearly between
// consecutive samples — the standard way trajectories recorded by GPS
// enter the sliced representation. Consecutive samples with identical
// positions produce resting units.
func MPointFromSamples(samples []Sample) (MPoint, error) {
	if len(samples) < 2 {
		return MPoint{}, fmt.Errorf("moving: need at least two samples, got %d", len(samples))
	}
	var bld mapping.Builder[units.UPoint]
	for i := 0; i+1 < len(samples); i++ {
		a, b := samples[i], samples[i+1]
		if b.T <= a.T {
			return MPoint{}, fmt.Errorf("moving: samples out of order at %d: %v then %v", i, a.T, b.T)
		}
		// Units are chained half-open so consecutive units are
		// adjacent-disjoint; the final unit closes at the last sample.
		iv := temporal.RightHalfOpen(a.T, b.T)
		if i+2 == len(samples) {
			iv = temporal.Closed(a.T, b.T)
		}
		var u units.UPoint
		if a.P == b.P {
			u = units.StaticUPoint(iv, a.P)
		} else {
			var err error
			u, err = units.UPointBetween(iv, a.P, b.P)
			if err != nil {
				return MPoint{}, err
			}
		}
		bld.Append(u)
	}
	m, err := bld.Build()
	if err != nil {
		return MPoint{}, err
	}
	return MPoint{M: m}, nil
}

// AtInstant returns the position at instant t (⊥ when undefined).
func (p MPoint) AtInstant(t temporal.Instant) spatial.Point {
	u, ok := p.M.UnitAt(t)
	if !ok {
		return spatial.UndefPoint()
	}
	return spatial.DefPoint(u.Eval(t))
}

// DefTime returns the time domain of the moving point.
func (p MPoint) DefTime() temporal.Periods { return p.M.DefTime() }

// Present reports whether the point is defined at t.
func (p MPoint) Present(t temporal.Instant) bool { return p.M.Present(t) }

// AtPeriods restricts the moving point to the given periods.
func (p MPoint) AtPeriods(pr temporal.Periods) MPoint { return MPoint{M: p.M.AtPeriods(pr)} }

// Initial returns the (instant, position) pair at the start of the
// definition time; ok is false for the empty moving point.
func (p MPoint) Initial() (base.Intime[geom.Point], bool) {
	u, ok := p.M.InitialUnit()
	if !ok {
		return base.Intime[geom.Point]{}, false
	}
	return base.Intime[geom.Point]{Inst: u.Iv.Start, Val: u.StartPoint()}, true
}

// Final returns the (instant, position) pair at the end of the
// definition time; ok is false for the empty moving point.
func (p MPoint) Final() (base.Intime[geom.Point], bool) {
	u, ok := p.M.FinalUnit()
	if !ok {
		return base.Intime[geom.Point]{}, false
	}
	return base.Intime[geom.Point]{Inst: u.Iv.End, Val: u.EndPoint()}, true
}

// Trajectory computes the line parts of the spatial projection of the
// moving point (the trajectory operation of Section 2): the segments
// traced by its moving units, with collinear overlaps merged into a
// canonical line value. Resting units project to points and do not
// contribute.
func (p MPoint) Trajectory() spatial.Line {
	segs := make([]geom.Segment, 0, p.M.Len())
	for _, u := range p.M.Units() {
		if s, ok := u.TrajectorySegment(); ok {
			segs = append(segs, s)
		}
	}
	return spatial.MergeLine(segs...)
}

// Length returns the length of the trajectory — the distance travelled
// along distinct paths. For the total distance travelled (counting
// repeated traversals) integrate Speed instead.
func (p MPoint) Length() float64 { return p.Trajectory().Length() }

// Distance returns the time-dependent Euclidean distance to another
// moving point as a moving real, defined where both points are defined
// (the lifted distance operation used by the spatio-temporal join of
// Section 2).
func (p MPoint) Distance(q MPoint) MReal {
	var bld mapping.Builder[units.UReal]
	pu, qu := p.M.Units(), q.M.Units()
	bld.Grow(len(pu) + len(qu))
	b := 0 // the unit of q the last pair covered; see temporal.Seek
	for a := range pu {
		ia := pu[a].Iv
		if b < len(qu) && qu[b].Iv.RDisjoint(ia) {
			if b++; b < len(qu) && qu[b].Iv.RDisjoint(ia) {
				b = temporal.Seek(qu, b+1, ia, units.UPoint.Interval)
			}
		}
		if b == len(qu) {
			break
		}
		for k := b; k < len(qu) && !ia.RDisjoint(qu[k].Iv); k++ {
			b = k
			iv, _ := ia.Intersect(qu[k].Iv)
			bld.Append(pu[a].DistanceTo(qu[k], iv))
		}
	}
	return MReal{M: bld.MustBuild()}
}

// DistanceToPoint returns the time-dependent distance to a fixed point.
func (p MPoint) DistanceToPoint(pt geom.Point) MReal {
	var bld mapping.Builder[units.UReal]
	for _, u := range p.M.Units() {
		bld.Append(u.DistanceToPoint(pt, u.Iv))
	}
	return MReal{M: bld.MustBuild()}
}

// Speed returns the scalar speed as a moving real (piecewise constant
// for the linear representation).
func (p MPoint) Speed() MReal {
	var bld mapping.Builder[units.UReal]
	for _, u := range p.M.Units() {
		bld.Append(u.SpeedUReal())
	}
	return MReal{M: bld.MustBuild()}
}

// Passes reports whether the moving point is ever at pt (the passes
// predicate of the abstract model).
func (p MPoint) Passes(pt geom.Point) bool {
	for _, u := range p.M.Units() {
		if _, ok := u.Passes(pt); ok {
			return true
		}
	}
	return false
}

// At restricts the moving point to the times it is exactly at pt.
func (p MPoint) At(pt geom.Point) MPoint {
	var bld mapping.Builder[units.UPoint]
	for _, u := range p.M.Units() {
		if u.M.Velocity() == (geom.Point{}) {
			if u.StartPoint() == pt {
				bld.Append(u)
			}
			continue
		}
		if t, ok := u.Passes(pt); ok {
			bld.Append(u.WithInterval(temporal.AtInstant(t)))
		}
	}
	return MPoint{M: bld.MustBuild()}
}

// InsideRegion returns the moving bool of "point inside the (static)
// region", computed per unit by stabbing the region boundary.
func (p MPoint) InsideRegion(r spatial.Region) MBool {
	b, _ := p.InsideRegionCtx(context.Background(), r)
	return b
}

// InsideRegionCtx is InsideRegion with cooperative cancellation: the
// per-unit scan checks ctx periodically and returns its error, so a
// server-side timeout stops the work instead of merely abandoning the
// response.
func (p MPoint) InsideRegionCtx(ctx context.Context, r spatial.Region) (MBool, error) {
	if r.IsEmpty() {
		var bld mapping.Builder[units.UBool]
		for i, u := range p.M.Units() {
			if err := cancelCheck(ctx, i); err != nil {
				return MBool{}, err
			}
			bld.Append(units.UBool{Iv: u.Iv, V: false})
		}
		return MBool{M: bld.MustBuild()}, nil
	}
	// A static region is a uregion with zero velocities; reuse the
	// unit-pair kernel.
	ur := staticURegion(r, temporal.Closed(temporal.NegInf, temporal.PosInf))
	var bld mapping.Builder[units.UBool]
	var buf [4]units.UBool
	pieces := buf[:0]
	for i, u := range p.M.Units() {
		if err := cancelCheck(ctx, i); err != nil {
			return MBool{}, err
		}
		pieces = units.UPointInsideURegion(pieces[:0], u, ur.WithInterval(u.Iv))
		for _, ub := range pieces {
			bld.Append(ub)
		}
	}
	return MBool{M: bld.MustBuild()}, nil
}

// Inside returns the moving bool of "moving point inside moving region",
// the inside algorithm of Section 5.2: the two unit lists are traversed
// in parallel along their refinement partition and the unit-pair kernel
// runs per refinement interval; results are concatenated with adjacent
// equal units merged.
func (p MPoint) Inside(r MRegion) MBool {
	b, _ := p.InsideCtx(context.Background(), r)
	return b
}

// InsideCtx is Inside with cooperative cancellation along the
// refinement partition — the O(n + m + S) loop the serving layer must
// be able to abort when a request deadline expires; ctx is polled on
// every cancelCheckEvery-th unit pair, the first included. The pairs
// are listed by index (see temporal.Seek), and the kernel's pieces pass
// through one small buffer into the result, so the only allocation is
// the result's own unit array.
func (p MPoint) InsideCtx(ctx context.Context, r MRegion) (MBool, error) {
	var bld mapping.Builder[units.UBool]
	pu, ru := p.M.Units(), r.M.Units()
	var buf [4]units.UBool
	pieces := buf[:0]
	b, i := 0, 0 // b as in Distance; i counts the pairs
	for a := range pu {
		ia := pu[a].Iv
		if b < len(ru) && ru[b].Iv.RDisjoint(ia) {
			if b++; b < len(ru) && ru[b].Iv.RDisjoint(ia) {
				b = temporal.Seek(ru, b+1, ia, units.URegion.Interval)
			}
		}
		if b == len(ru) {
			break
		}
		for k := b; k < len(ru) && !ia.RDisjoint(ru[k].Iv); k, i = k+1, i+1 {
			b = k
			if err := cancelCheck(ctx, i); err != nil {
				return MBool{}, err
			}
			iv, _ := ia.Intersect(ru[k].Iv)
			pieces = units.UPointInsideURegion(pieces[:0], pu[a].WithInterval(iv), ru[k].WithInterval(iv))
			for _, ub := range pieces {
				bld.Append(ub)
			}
		}
	}
	return MBool{M: bld.MustBuild()}, nil
}

// When restricts the moving point to the periods where the given moving
// bool is true — the idiom for queries such as "the part of the flight
// inside the storm".
func (p MPoint) When(b MBool) MPoint { return p.AtPeriods(b.WhenTrue()) }

// BBox returns the spatial bounding box of the whole movement.
func (p MPoint) BBox() geom.Rect {
	r := geom.EmptyRect()
	for _, u := range p.M.Units() {
		r = r.Union(u.BBox())
	}
	return r
}

// String renders the moving point.
func (p MPoint) String() string { return p.M.String() }
