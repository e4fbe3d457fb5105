package moving

import (
	"context"
	"math"
	"sync/atomic"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// The filter step of a filter-and-refine join (Section 4.2 stores a
// bounding cube with every spatial unit for exactly this): bounding boxes
// decide that a lifted predicate can never hold for a pair, or for a
// piece of it, so that the Section 5 kernel need not run there. A filter
// may err only towards MayHold — what it rejects is provably false. Each
// shape has two steps over summaries computed once per value
// (PointBounds, RegionBounds: the whole value's box and one stored box
// per unit, flat arrays beside the unit arrays). The candidate test,
// InsideCandidate or WithinCandidate, compares the whole-value boxes and
// is the only step that refuses a pair as NoObject. The walk, run on a
// candidate, lists the pairs of units whose intervals meet — the
// common pieces of the two arrays' refinement partition (Section 5.2),
// Iv_a ∩ Iv_b, in time order — by index, over the unit arrays
// themselves, as every lifted binary operation does (see
// temporal.Seek), and allocates nothing. The stored boxes of the index
// pair refuse most pairs before the piece is built; a pair they leave
// gets its piece and the box of each point unit over it, from the
// unit's motion at the piece's two ends
// (units.MPoint.BBox: the box of the sliced unit, with no unit copied);
// only the inside kernel is handed sliced units. Both walks refine in
// that same pass: SometimesInsideHook runs the sometimes-inside
// predicate kernel on the pieces the boxes leave, ComesWithin takes the
// minimum of the unit distance there and leaves to its caller only a
// pair whose minima do not settle the answer. Each calls a hook of its
// caller once, before its first kernel call, so a caller that times the
// kernels reads no clock for a pair the boxes refuse. The summaries go
// by pointer: a caller holds them in arrays it does not change while
// the walks read them.

// Verdict is the outcome of a filter for one pair.
type Verdict uint8

const (
	// MayHold: the boxes do not exclude the pair; the kernel decides.
	MayHold Verdict = iota
	// NoObject: excluded by the whole-value summaries (a candidate test).
	NoObject
	// NoUnit: excluded on every common piece of the two unit arrays.
	NoUnit
)

// PointBounds summarises a moving point for the filters: the closed hull
// of its definition time (Start > End for the empty value), the box of
// the whole movement, the box of every unit (its time extent is the unit
// interval, which the unit array already holds), and Mag, a bound on the
// magnitude of every intermediate the distance kernel forms — the
// largest |X0| + |Y0| + (|X1| + |Y1|)·|t| over the units and their
// instants — which scales the distance filter's rounding margin. A value
// whose Mag is not finite (an unbounded interval, non-finite
// coefficients) is never filtered.
type PointBounds struct {
	Start, End temporal.Instant
	Box        geom.Rect
	Units      []geom.Rect
	Mag        float64
}

// Bounds computes the moving point's filter summary.
func (p MPoint) Bounds() PointBounds {
	us := p.M.Units()
	b := PointBounds{Start: temporal.PosInf, End: temporal.NegInf, Box: geom.EmptyRect(), Units: make([]geom.Rect, len(us))}
	if len(us) == 0 {
		return b
	}
	b.Start, b.End = us[0].Iv.Start, us[len(us)-1].Iv.End
	for i, u := range us {
		b.Units[i] = u.BBox()
		b.Box = b.Box.Union(b.Units[i])
		t := math.Max(math.Abs(float64(u.Iv.Start)), math.Abs(float64(u.Iv.End)))
		b.Mag = math.Max(b.Mag, math.Abs(u.M.X0)+math.Abs(u.M.Y0)+(math.Abs(u.M.X1)+math.Abs(u.M.Y1))*t)
	}
	if !finite(b.Mag) {
		b.Mag = math.Inf(1) // NaN (0·∞) included: comparisons must fail closed
	}
	return b
}

// RegionBounds summarises a moving region: the cube of the whole value
// and, per unit, the spatial rectangle of that unit's bounding cube
// (its time extent is the unit interval, which the unit array already
// holds). A rectangle poisoned by NaN (a static vertex over an unbounded
// interval evaluates 0·∞) is widened to the whole plane.
type RegionBounds struct {
	Cube  geom.Cube
	Units []geom.Rect
}

// Bounds computes the moving region's filter summary: one cube
// evaluation per unit.
func (r MRegion) Bounds() RegionBounds {
	us := r.M.Units()
	b := RegionBounds{Cube: geom.EmptyCube(), Units: make([]geom.Rect, len(us))}
	for i, u := range us {
		c := u.Cube()
		if !c.Rect.IsEmpty() && !(c.Rect.MinX <= c.Rect.MaxX && c.Rect.MinY <= c.Rect.MaxY) {
			inf := math.Inf(1)
			c.Rect = geom.Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}
		}
		b.Units[i] = c.Rect
		b.Cube = b.Cube.Union(c)
	}
	return b
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// InsideCandidate reports whether the whole-value summaries of a point
// and a region leave sometimes(inside(p, r)) open: their definition times
// and their boxes meet. A pair it refuses is NoObject, and the kernels
// answer false for it. A point whose Mag is not finite is always a
// candidate.
func InsideCandidate(pb *PointBounds, rb *RegionBounds) bool {
	return !finite(pb.Mag) ||
		float64(pb.Start) <= rb.Cube.MaxT && rb.Cube.MinT <= float64(pb.End) && pb.Box.Intersects(rb.Cube.Rect)
}

// SometimesInsideHook answers sometimes(inside(p, r)) — it equals
// p.Inside(r).Sometimes() — in one walk along the common pieces of the
// two unit arrays, filtering and refining as it goes; pb and rb are
// p.Bounds() and r.Bounds(), and the pair is meant to be one
// InsideCandidate accepts. Per pair of units covering a piece it asks
// the two stored unit boxes first, by index, before the piece is built;
// a pair they leave gets its piece and the test of the point unit's box
// over it against the stored region box, and a pair neither refuses
// runs units.UPointSometimesInsideURegion on the two units sliced to
// the piece, the walk returning at the first true one; no moving bool
// is built. onKernel, when not nil, is called once, just before the
// first kernel call. The verdict says how far the pair got: NoUnit
// (every piece was refused, the kernel never ran; so is every piece of
// a pair the candidate test refuses) or MayHold. ctx is polled on every
// cancelCheckEvery-th piece walked, refused ones included, the first
// included — InsideCtx's cadence.
//
// A refused piece is one the kernel's own cube test answers false for,
// and that needs no tolerance: a unit's motion is linear and
// floating-point evaluation of x0 + x1·t is monotone in t, so the
// position at any instant of a piece lies within the positions at the
// ends of the whole unit. The sliced point box is the very box
// UPointInsideURegion computes and lies within the stored one; the
// stored region rectangle contains the sliced one the kernel computes.
// A point whose Mag is not finite is walked unfiltered.
func SometimesInsideHook(ctx context.Context, p MPoint, pb *PointBounds, r MRegion, rb *RegionBounds, onKernel func()) (bool, Verdict, error) {
	return sometimesInside(ctx, p, pb, r, rb, onKernel, nil)
}

// sometimesInside is SometimesInsideHook. visit, when not nil, is told
// of every unit pair the walk visits, in order, with the piece it built
// for the pair, or the zero Interval (never a valid one) when the stored
// boxes refused it; the tests hold that sequence to temporal.Refine's
// common pieces.
func sometimesInside(ctx context.Context, p MPoint, pb *PointBounds, r MRegion, rb *RegionBounds, onKernel func(), visit func(a, b int, piece temporal.Interval)) (bool, Verdict, error) {
	filtered := finite(pb.Mag)
	verdict := NoUnit
	if !filtered {
		verdict = MayHold
	}
	pu, ru := p.M.Units(), r.M.Units()
	// b is the region unit the last visited pair covered (or the last
	// seek's answer), where the next seek starts; i counts the pairs.
	b, i := 0, 0
	for a := range pu {
		// Seek the first region unit not wholly before a: the carried
		// one, the next, or a binary search.
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
			tally(&walkCounts[walkInside].visited)
			if err := cancelCheck(ctx, i); err != nil {
				return false, verdict, err
			}
			if filtered && !pb.Units[a].Intersects(rb.Units[k]) {
				tally(&walkCounts[walkInside].stored)
				if visit != nil {
					visit(a, k, temporal.Interval{})
				}
				continue
			}
			iv, _ := ia.Intersect(ru[k].Iv)
			if visit != nil {
				visit(a, k, iv)
			}
			if filtered && !pu[a].M.BBox(iv).Intersects(rb.Units[k]) {
				tally(&walkCounts[walkInside].sliced)
				continue
			}
			if onKernel != nil {
				onKernel()
				onKernel = nil
			}
			verdict = MayHold
			tally(&walkCounts[walkInside].kernel)
			if units.UPointSometimesInsideURegion(pu[a].WithInterval(iv), ru[k].WithInterval(iv)) {
				return true, MayHold, nil
			}
		}
	}
	return false, verdict, nil
}

// WithinMargin scales the rounding margin of WithinCandidate and
// ComesWithin: with m = WithinMargin·(1 + max(c, 0) + pb.Mag + qb.Mag),
// the candidate test refuses a pair and the walk a piece whose boxes lie
// farther apart than the limit max(c, 0) + m; the walk answers false
// when every unit minimum exceeds that limit, and answers true only for
// a minimum below c − m. A minimum in between is the band the walk
// leaves to the composed chain.
//
// Why a box distance or a unit minimum above the limit puts the kernels'
// answer above c: whatever min, or val(initial(atmin(·))), reports is
// the root of the quadratic UPoint.DistanceTo formed, evaluated at an
// instant of a common piece. DistanceTo builds |Δ0 + Δ1·t|² from
// coefficient differences of magnitude at most W = pb.Mag + qb.Mag, so
// the evaluated radicand is off by a few dozen ulps of W² — below
// 10⁻¹⁴·W² — from the exact squared distance D², and D is at least the
// box distance up to a few ulps of W. With box distance > c + 10⁻⁶·(1 +
// |c| + W) the radicand stays above c² + 10⁻¹²·W² − 10⁻¹⁴·W²: positive
// (never a NaN root) and its root above c. The 1 + |c| part absorbs the
// rounding of the squared comparison itself. A unit minimum is that same
// root at the instant Min picks, so the same bound holds of it and of
// every other instant the chain may evaluate.
//
// Why a minimum below c − m puts them below c: min(distance) is the
// least unit minimum, the very values the walk computes. atmin keeps
// every instant whose value lies within atValueNear's tolerance,
// 10⁻⁹·max(1, |v|), of that minimum v, so initial(atmin) reports a value
// at most v plus that tolerance plus the radicand error — both far below
// m. atmin keeps nothing, though, when the least minimum is an infimum
// at an open end of a piece (before a gap) and no instant comes within
// the tolerance of it: then min is below c and val(initial(atmin)) is ⊥.
// And for a pair that comes closer than m, atmin's instants can
// evaluate a radicand that rounds below zero; UReal.Eval reads it as 0,
// not NaN, but what min and val then report is the rounding's, not the
// distance's. So the walk answers true only when the least minimum is at
// least m and a minimum attained at an instant of its piece lies within
// half the tolerance of it. The band, a least minimum nobody attains and
// a pair that nearly meets are what the arguments do not reach: there
// min and atmin decide by rounding, or disagree, and the walk defers
// instead of guessing.
const WithinMargin = 1e-6

// withinLimit returns the rounding margin m of a within test (see
// WithinMargin) and the limit max(c, 0) + m beyond which a box distance or
// a unit minimum puts the pair's distance above c.
func withinLimit(pb, qb *PointBounds, c float64) (limit, m float64) {
	limit = max(c, 0)
	m = WithinMargin * (1 + limit + pb.Mag + qb.Mag)
	return limit + m, m
}

// WithinCandidate reports whether the whole-value summaries of two points
// leave "p and q come within c" open: their definition times meet and
// their boxes lie within the limit of each other. A pair it refuses is
// NoObject, and every kernel spelling answers false for it. A pair whose
// limit is not finite (a Mag that is not) is always a candidate.
func WithinCandidate(pb, qb *PointBounds, c float64) bool {
	limit, _ := withinLimit(pb, qb, c)
	return !finite(limit) || pb.Start <= qb.End && qb.Start <= pb.End && !beyond(pb.Box, qb.Box, limit)
}

// ComesWithin answers whether p and q ever come within distance c of
// each other — min(distance(p, q)) < c, equally ≤ c, and
// val(initial(atmin(distance(p, q)))) < c or ≤ c — in one walk along
// the common pieces of their unit arrays; pb and qb are their Bounds(),
// and the pair is meant to be one WithinCandidate accepts. Per pair of
// units covering a piece it asks the two stored unit boxes first, by
// index, before the piece is built; a pair they leave gets its piece
// and the test of the two units' boxes over it, from their motions at
// its ends (c ≤ 0 counts as 0), and on a pair neither refuses the walk
// takes the minimum of the unit distance the distance kernel builds
// there; no moving real is built. onKernel, when not nil, is called
// once, just before the first unit distance is formed. decided is false
// when the minima do not settle the answer under both spellings (see
// WithinMargin), or when the margin is not finite: then the caller runs
// the kernels. The verdict says how far the pair got: NoUnit (every
// piece was refused, no unit distance was formed; so is every piece of
// a pair the candidate test refuses) or MayHold.
func ComesWithin(p MPoint, pb *PointBounds, q MPoint, qb *PointBounds, c float64, onKernel func()) (hit bool, v Verdict, decided bool) {
	return comesWithin(p, pb, q, qb, c, onKernel, nil)
}

// comesWithin is ComesWithin; visit is sometimesInside's.
func comesWithin(p MPoint, pb *PointBounds, q MPoint, qb *PointBounds, c float64, onKernel func(), visit func(a, b int, piece temporal.Interval)) (hit bool, v Verdict, decided bool) {
	limit, m := withinLimit(pb, qb, c)
	if !finite(limit) {
		return false, MayHold, false
	}
	// least is the least unit minimum — what min(distance) reports —
	// and attained the least one reached at an instant of its piece.
	v, least, attained := NoUnit, math.Inf(1), math.Inf(1)
	pu, qu := p.M.Units(), q.M.Units()
	b := 0 // as in sometimesInside
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
			tally(&walkCounts[walkWithin].visited)
			// The stored boxes contain the sliced ones: what they put
			// beyond the limit, slicing cannot bring back.
			if beyond(pb.Units[a], qb.Units[k], limit) {
				tally(&walkCounts[walkWithin].stored)
				if visit != nil {
					visit(a, k, temporal.Interval{})
				}
				continue
			}
			iv, _ := ia.Intersect(qu[k].Iv)
			if visit != nil {
				visit(a, k, iv)
			}
			if beyond(pu[a].M.BBox(iv), qu[k].M.BBox(iv), limit) {
				tally(&walkCounts[walkWithin].sliced)
				continue
			}
			if onKernel != nil {
				onKernel()
				onKernel = nil
			}
			v = MayHold
			tally(&walkCounts[walkWithin].kernel)
			mn, at := pu[a].DistanceTo(qu[k], iv).Min()
			least = min(least, mn)
			if iv.Contains(at) {
				attained = min(attained, mn)
			}
		}
	}
	switch {
	case least > limit:
		return false, v, true
	case m <= least && attained < c-m && attained-least <= nearTolerance(least)/2:
		return true, v, true
	}
	return false, v, false
}

// beyond reports whether every point of a is farther than d from every
// point of b. Empty rectangles are beyond everything. The builtin max
// follows math.Max's rules for NaN and the zeros, and inlines.
func beyond(a, b geom.Rect, d float64) bool {
	dx := max(0, a.MinX-b.MaxX, b.MinX-a.MaxX)
	dy := max(0, a.MinY-b.MaxY, b.MinY-a.MaxY)
	return dx*dx+dy*dy > d*d
}

// PieceCounts is what a walk did with the unit pairs it visited: every
// pair, those the stored boxes refused, those the sliced boxes refused,
// and those handed to the kernel. The walks count them only in a build
// with -tags=debugcheck; see TakePieceCounts.
type PieceCounts struct {
	Visited, Stored, Sliced, Kernel int64
}

// The walks' tallies, by walk. tally compiles to nothing unless
// countPieces is set (see filter_debugcheck.go).
const (
	walkInside = iota
	walkWithin
)

var walkCounts [2]struct{ visited, stored, sliced, kernel atomic.Int64 }

func tally(n *atomic.Int64) {
	if countPieces {
		n.Add(1)
	}
}

// TakePieceCounts returns what the inside and the within walk counted
// since the last call, and starts both counts again. Without the
// debugcheck build tag both are zero.
func TakePieceCounts() (inside, within PieceCounts) {
	take := func(w int) PieceCounts {
		n := &walkCounts[w]
		return PieceCounts{n.visited.Swap(0), n.stored.Swap(0), n.sliced.Swap(0), n.kernel.Swap(0)}
	}
	return take(walkInside), take(walkWithin)
}
