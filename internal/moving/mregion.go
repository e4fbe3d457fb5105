package moving

import (
	"context"
	"math"

	"movingdb/internal/geom"
	"movingdb/internal/mapping"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// MRegion is the moving region type: mapping(uregion).
type MRegion struct {
	M mapping.Mapping[units.URegion]
}

// NewMRegion validates units and builds a moving region.
func NewMRegion(us ...units.URegion) (MRegion, error) {
	m, err := mapping.New(us...)
	if err != nil {
		return MRegion{}, err
	}
	return MRegion{M: m}, nil
}

// MustMRegion is like NewMRegion but panics on invalid input.
func MustMRegion(us ...units.URegion) MRegion {
	m, err := NewMRegion(us...)
	if err != nil {
		panic(err)
	}
	return m
}

// staticURegion converts a static region value into a uregion unit with
// zero velocities over iv.
func staticURegion(r spatial.Region, iv temporal.Interval) units.URegion {
	faces := make([]units.MFace, 0, r.NumFaces())
	toMCycle := func(c spatial.Cycle) units.MCycle {
		mc := make(units.MCycle, 0, c.Len())
		for _, v := range c.Vertices() {
			mc = append(mc, units.StaticMPoint(v))
		}
		return mc
	}
	for _, f := range r.Faces() {
		mf := units.MFace{Outer: toMCycle(f.Outer)}
		for _, h := range f.Holes {
			mf.Holes = append(mf.Holes, toMCycle(h))
		}
		faces = append(faces, mf)
	}
	return units.URegionUnchecked(iv, faces)
}

// StaticMRegion lifts a static region to a moving region constant over
// the given interval.
func StaticMRegion(r spatial.Region, iv temporal.Interval) MRegion {
	return MRegion{M: mapping.FromOrdered([]units.URegion{staticURegion(r, iv)})}
}

// AtInstant returns the region value at instant t, implementing the
// atinstant algorithm of Section 5.1: binary search for the unit
// containing t (O(log n)), then evaluation of its moving segments; at
// unit boundaries the degeneracy cleanup applies. The empty region is
// returned when t lies outside the definition time. ok distinguishes a
// genuinely empty snapshot from "undefined".
func (r MRegion) AtInstant(t temporal.Instant) (spatial.Region, bool) {
	u, found := r.M.UnitAt(t)
	if !found {
		return spatial.Region{}, false
	}
	reg, ok := u.EvalAt(t)
	return reg, ok
}

// DefTime returns the time domain of the moving region.
func (r MRegion) DefTime() temporal.Periods { return r.M.DefTime() }

// Present reports whether the region is defined at t.
func (r MRegion) Present(t temporal.Instant) bool { return r.M.Present(t) }

// AtPeriods restricts the moving region to the given periods.
func (r MRegion) AtPeriods(p temporal.Periods) MRegion { return MRegion{M: r.M.AtPeriods(p)} }

// Area returns the time-dependent area as a moving real. For linearly
// moving vertices the shoelace formula makes the area of each unit an
// exact quadratic in t, so the lifted size operation is closed in the
// representation — the property Section 3.2.5 calls out.
func (r MRegion) Area() MReal {
	a, _ := r.AreaCtx(context.Background())
	return a
}

// AreaCtx is Area with cooperative cancellation over the unit scan.
func (r MRegion) AreaCtx(ctx context.Context) (MReal, error) {
	us := r.M.Units()
	var bld mapping.Builder[units.UReal]
	for i := range us {
		if err := cancelCheck(ctx, i); err != nil {
			return MReal{}, err
		}
		bld.Append(unitArea(&us[i]))
	}
	return MReal{M: bld.MustBuild()}, nil
}

// AreaMaxCtx is Area().Max() without the moving real or the instant,
// the same value bit for bit. ok is false for the empty moving region
// and, as for MReal.Max, for an area whose greatest value is no finite
// real.
func (r MRegion) AreaMaxCtx(ctx context.Context) (float64, bool, error) {
	return r.areaExtremum(ctx, true)
}

// AreaMinCtx is Area().Min() without the moving real, as AreaMaxCtx is
// of Max.
func (r MRegion) AreaMinCtx(ctx context.Context) (float64, bool, error) {
	return r.areaExtremum(ctx, false)
}

// areaExtremum folds the units AreaCtx would build into their greatest
// (greatest set) or least value as they are produced, allocating
// nothing. The open run of equal quadratics is the unit Builder would
// hold: a unit whose coefficients equal the run's is joined to it by
// mapping.Merge, the builder's rule, and each finished run is folded by
// its UReal.Max or Min, as MReal's are. A merged
// run's interior vertex is a candidate that neither half has, so the
// runs, not the units, are what the fold must see.
func (r MRegion) areaExtremum(ctx context.Context, greatest bool) (float64, bool, error) {
	us := r.M.Units()
	if len(us) == 0 {
		return 0, false, nil
	}
	best := math.Inf(1)
	if greatest {
		best = math.Inf(-1)
	}
	var run units.UReal
	for i := range us {
		if err := cancelCheck(ctx, i); err != nil {
			return 0, false, err
		}
		a := unitArea(&us[i])
		if i == 0 {
			run = a
			continue
		}
		if a.EqualFunc(run) {
			if merged, ok := mapping.Merge(run, a); ok {
				run = merged
				continue
			}
		}
		best = foldExtremum(best, &run, greatest)
		run = a
	}
	best = foldExtremum(best, &run, greatest)
	if math.IsInf(best, 0) {
		return 0, false, nil
	}
	return best, true, nil
}

// foldExtremum folds one unit into the greatest (greatest set) or least
// value so far, with MReal.Max's and Min's comparison.
func foldExtremum(best float64, u *units.UReal, greatest bool) float64 {
	if greatest {
		if v, _ := u.Max(); v > best {
			return v
		}
	} else if v, _ := u.Min(); v < best {
		return v
	}
	return best
}

// unitArea computes the exact quadratic area polynomial of a uregion
// unit: ½·Σ cross(v_i(t), v_{i+1}(t)) per cycle, outer cycles positive,
// holes negative. Each cross of two linear motions is a quadratic in t.
func unitArea(u *units.URegion) units.UReal {
	// Signed area of a ring; its orientation is part of the data, so
	// take the ring sign at the unit midpoint to normalise.
	mid := (float64(u.Iv.Start) + float64(u.Iv.End)) / 2
	var a, b, c float64
	for k := range u.Faces {
		f := &u.Faces[k]
		ca, cb, cc := ringArea(f.Outer, mid)
		a += ca / 2
		b += cb / 2
		c += cc / 2
		for _, h := range f.Holes {
			ca, cb, cc := ringArea(h, mid)
			a -= ca / 2
			b -= cb / 2
			c -= cc / 2
		}
	}
	return units.UReal{Iv: u.Iv, A: a, B: b, C: c}
}

// ringArea returns twice the area of a moving ring as the coefficients
// of a quadratic in t, its sign taken positive at instant mid.
func ringArea(mc units.MCycle, mid float64) (ca, cb, cc float64) {
	for i := range mc {
		j := i + 1 // the ring closes: the last vertex pairs with the first
		if j == len(mc) {
			j = 0
		}
		p, q := &mc[i], &mc[j]
		// cross(p(t), q(t)) = (p0+p1·t) × (q0+q1·t)
		ca += p.X1*q.Y1 - p.Y1*q.X1
		cb += p.X0*q.Y1 + p.X1*q.Y0 - p.Y0*q.X1 - p.Y1*q.X0
		cc += p.X0*q.Y0 - p.Y0*q.X0
	}
	if v := ca*mid*mid + cb*mid + cc; v < 0 {
		return -ca, -cb, -cc
	}
	return ca, cb, cc
}

// PerimeterAt returns the exact perimeter at instant t. A fully lifted
// perimeter is not closed in the ureal class in general (a sum of square
// roots of distinct quadratics); use Perimeter for the common closed
// cases.
func (r MRegion) PerimeterAt(t temporal.Instant) (float64, bool) {
	reg, ok := r.AtInstant(t)
	if !ok {
		return 0, false
	}
	return reg.Perimeter(), true
}

// Perimeter returns the time-dependent perimeter as a moving real when
// it is representable: each unit's perimeter must be a polynomial or a
// single square root, which holds for rigid translation (constant edge
// lengths). ok is false otherwise; use PerimeterAt pointwise then.
func (r MRegion) Perimeter() (MReal, bool) {
	var bld mapping.Builder[units.UReal]
	for _, u := range r.M.Units() {
		var total float64
		it := u.MSegs()
		for g, more := it.Next(); more; g, more = it.Next() {
			// Edge length at time t: |d0 + d1·t|; constant iff d1 = 0.
			d1x, d1y := g.E.X1-g.S.X1, g.E.Y1-g.S.Y1
			if !geom.ApproxZero(d1x) || !geom.ApproxZero(d1y) {
				return MReal{}, false
			}
			p, q := g.Eval(u.Iv.Start)
			total += p.Dist(q)
		}
		bld.Append(units.ConstUReal(u.Iv, total))
	}
	return MReal{M: bld.MustBuild()}, true
}

// Cube returns the 3D bounding cube of the whole development.
func (r MRegion) Cube() geom.Cube {
	c := geom.EmptyCube()
	for _, u := range r.M.Units() {
		c = c.Union(u.Cube())
	}
	return c
}

// String renders the moving region.
func (r MRegion) String() string { return r.M.String() }
