package units

import (
	"fmt"
	"math"

	"movingdb/internal/temporal"
)

// UReal is the ureal unit type (Section 3.2.5): over its interval the
// value is the polynomial a·t² + b·t + c, or its square root when Root
// is set. Square roots of quadratics are exactly what time-dependent
// Euclidean distances between linearly moving points require, which is
// the paper's motivation for this function class.
type UReal struct {
	Iv      temporal.Interval
	A, B, C float64
	Root    bool
}

// NewUReal returns the ureal unit (a, b, c, r) over iv. When r is set,
// callers should ensure the quadratic is non-negative on iv; Eval reads
// it as 0 where it is not.
func NewUReal(iv temporal.Interval, a, b, c float64, root bool) UReal {
	return UReal{Iv: iv, A: a, B: b, C: c, Root: root}
}

// ConstUReal returns a constant real unit.
func ConstUReal(iv temporal.Interval, v float64) UReal { return UReal{Iv: iv, C: v} }

// Interval returns the unit interval.
func (u UReal) Interval() temporal.Interval { return u.Iv }

// WithInterval returns the same function on a different interval.
func (u UReal) WithInterval(iv temporal.Interval) UReal {
	u.Iv = iv
	return u
}

// EqualFunc reports whether two units describe the same function of
// time (identical representation).
func (u UReal) EqualFunc(v UReal) bool {
	return u.A == v.A && u.B == v.B && u.C == v.C && u.Root == v.Root
}

// Eval is the ι function of Section 3.2.5. A root unit's radicand is
// clamped at 0: the squared distance of two points that meet is exactly
// 0 at an instant, and its evaluation may round below that, which would
// read as NaN.
func (u UReal) Eval(t temporal.Instant) float64 {
	f := float64(t)
	v := u.A*f*f + u.B*f + u.C
	if u.Root {
		return math.Sqrt(max(v, 0))
	}
	return v
}

// poly evaluates the underlying quadratic (before any square root).
func (u UReal) poly(t float64) float64 { return u.A*t*t + u.B*t + u.C }

// vertex returns the instant -B/2A of the quadratic's vertex and
// whether it lies strictly inside the unit interval, which no degenerate
// interval has an instant of.
func (u *UReal) vertex() (temporal.Instant, bool) {
	//molint:ignore float-eq vertex existence test; a near-zero quadratic coefficient puts the vertex far outside the unit interval where the range test discards it
	if u.A == 0 {
		return 0, false
	}
	v := temporal.Instant(-u.B / (2 * u.A))
	return v, u.Iv.Start < v && v < u.Iv.End
}

// extremumTimes returns the candidate instants for extrema of the unit
// function within the unit interval: the interval bounds and, when the
// quadratic has an interior vertex, that vertex.
func (u UReal) extremumTimes() (ts [3]temporal.Instant, n int) {
	ts[0], ts[1], n = u.Iv.Start, u.Iv.End, 2
	if v, ok := u.vertex(); ok {
		ts[2], n = v, 3
	}
	return ts, n
}

// ends returns the unit function's values at the start and the end of
// its interval; at an infinite end, its limit there, since Eval(±∞) is
// NaN.
func (u *UReal) ends() (float64, float64) {
	s, e := float64(u.Iv.Start), float64(u.Iv.End)
	if math.IsInf(s, 0) || math.IsInf(e, 0) {
		return u.limitOrEval(s), u.limitOrEval(e)
	}
	vs, ve := u.poly(s), u.poly(e)
	if u.Root {
		return math.Sqrt(max(vs, 0)), math.Sqrt(max(ve, 0))
	}
	return vs, ve
}

// limitOrEval is Eval(t) at a finite t and the function's limit at
// t = ±∞; a root unit takes the square root of radicandAt(t) clamped at
// 0, as Eval does.
func (u *UReal) limitOrEval(t float64) float64 {
	p := u.radicandAt(t)
	if u.Root {
		return math.Sqrt(max(p, 0))
	}
	return p
}

// radicandAt is the quadratic at a finite t and its limit at t = ±∞:
// the infinity its leading nonzero coefficient points to (A on both
// sides; B, mirrored at −∞), or C when both are zero.
func (u *UReal) radicandAt(t float64) float64 {
	if !math.IsInf(t, 0) {
		return u.poly(t)
	}
	switch {
	//molint:ignore float-eq a leading coefficient that is not exactly zero decides the limit however small it is
	case u.A != 0:
		return math.Inf(int(math.Copysign(1, u.A)))
	//molint:ignore float-eq a leading coefficient that is not exactly zero decides the limit however small it is
	case u.B != 0:
		return math.Inf(int(math.Copysign(1, u.B) * math.Copysign(1, t)))
	}
	return u.C
}

// Min returns the minimum value the unit takes on its interval and the
// earliest instant where it is attained. For an open interval end the
// infimum is still reported (it is attained in the closure); at an
// infinite end the value is the function's limit there, possibly −∞.
func (u UReal) Min() (float64, temporal.Instant) { return u.extremum(1) }

// Max returns the maximum value on the interval and the earliest instant
// where it is attained, by Min's rule.
func (u UReal) Max() (float64, temporal.Instant) { return u.extremum(-1) }

// extremum returns the value v of the unit that minimises sign·v, and
// the earliest instant where it is attained. The candidates are the
// start, the interior vertex and the end, visited in time order; only a
// strictly better value replaces the best, so the earliest instant wins
// a tie, and a NaN candidate (A·t² and B·t overflowing with opposite
// signs) is passed over.
func (u *UReal) extremum(sign float64) (float64, temporal.Instant) {
	start, end := u.ends()
	best, at := sign*math.Inf(1), u.Iv.Start
	if sign*start < sign*best {
		best = start
	}
	if t, ok := u.vertex(); ok {
		if v := u.Eval(t); sign*v < sign*best {
			best, at = v, t
		}
	}
	if sign*end < sign*best {
		best, at = end, u.Iv.End
	}
	return best, at
}

// TimesAt returns the instants within the unit interval at which the
// unit function equals v; all reports an identically-v function.
func (u UReal) TimesAt(v float64) (ts []temporal.Instant, all bool) {
	return u.appendTimesAt(nil, v)
}

func (u UReal) appendTimesAt(ts []temporal.Instant, v float64) ([]temporal.Instant, bool) {
	target := v
	if u.Root {
		if v < 0 {
			return ts, false
		}
		target = v * v
	}
	roots, n, everywhere := QuadRoots(u.A, u.B, u.C-target)
	if everywhere {
		return ts, true
	}
	for _, r := range roots[:n] {
		if t := temporal.Instant(r); u.Iv.Contains(t) {
			ts = append(ts, t)
		}
	}
	return ts, false
}

// InstantsNear appends to dst the instants within the unit interval at
// which the unit function comes within tol of v, ascending: the roots of
// the exact equation plus any interval endpoint or interior vertex whose
// value is within tol — at most five candidates, so a caller's small
// stack buffer holds them. It is the robust companion of TimesAt for
// extremum restriction (atmin/atmax), where the target value stems from
// a different unit's floating point computation and exact root solving
// can miss the attained extremum by one ulp. all reports a function
// within tol of v everywhere on the interval.
func (u UReal) InstantsNear(dst []temporal.Instant, v, tol float64) (ts []temporal.Instant, all bool) {
	first := len(dst)
	dst, everywhere := u.appendTimesAt(dst, v)
	if everywhere {
		return dst, true
	}
	ext, n := u.extremumTimes()
	for _, t := range ext[:n] {
		if u.Iv.Contains(t) && math.Abs(u.Eval(t)-v) <= tol {
			dst = append(dst, t)
		}
	}
	// Sort and deduplicate (near-duplicates within no tolerance — exact
	// instant equality only; distinct instants are distinct results).
	cand := dst[first:]
	for i := 1; i < len(cand); i++ {
		for j := i; j > 0 && cand[j] < cand[j-1]; j-- {
			cand[j], cand[j-1] = cand[j-1], cand[j]
		}
	}
	out := dst[:first]
	for i, t := range cand {
		if i == 0 || t != cand[i-1] {
			out = append(out, t)
		}
	}
	return out, false
}

// CmpIntervals partitions the unit interval by the sign of
// (value − v): it returns the sub-intervals where the unit function is
// respectively less than, equal to, and greater than v. Equality pieces
// are degenerate instants unless the function is identically v.
func (u UReal) CmpIntervals(v float64) (less, equal, greater []temporal.Interval) {
	ts, all := u.TimesAt(v)
	if all {
		return nil, []temporal.Interval{u.Iv}, nil
	}
	classify := func(iv temporal.Interval, sample temporal.Instant) {
		val := u.Eval(sample)
		switch {
		case val < v:
			less = append(less, iv)
		case val > v:
			greater = append(greater, iv)
		default:
			equal = append(equal, iv)
		}
	}
	if u.Iv.IsDegenerate() {
		classify(u.Iv, u.Iv.Start)
		return less, equal, greater
	}
	// Interior crossings split the interval; boundary crossings, when
	// the boundary is closed, become their own degenerate pieces so each
	// emitted piece carries a single sign.
	cuts := []temporal.Instant{u.Iv.Start}
	for _, t := range ts {
		if u.Iv.ContainsOpen(t) {
			cuts = append(cuts, t)
		}
	}
	cuts = append(cuts, u.Iv.End)
	startLC, endRC := u.Iv.LC, u.Iv.RC
	//molint:ignore float-eq boundary attainment of the query value decides interval closure; the cut instants are roots of Eval−v, so attainment at a bound is exact by construction
	if startLC && u.Eval(u.Iv.Start) == v {
		classify(temporal.AtInstant(u.Iv.Start), u.Iv.Start)
		startLC = false
	}
	//molint:ignore float-eq boundary attainment of the query value decides interval closure; the cut instants are roots of Eval−v, so attainment at a bound is exact by construction
	if endRC && u.Eval(u.Iv.End) == v {
		classify(temporal.AtInstant(u.Iv.End), u.Iv.End)
		endRC = false
	}
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if k > 0 {
			classify(temporal.AtInstant(lo), lo)
		}
		piece := temporal.Interval{
			Start: lo, End: hi,
			LC: k == 0 && startLC,
			RC: k+2 == len(cuts) && endRC,
		}
		mid := temporal.Instant((float64(lo) + float64(hi)) / 2)
		classify(piece, mid)
	}
	return less, equal, greater
}

// Neg returns the pointwise negation of a non-root unit.
func (u UReal) Neg() (UReal, bool) {
	if u.Root {
		return UReal{}, false
	}
	return UReal{Iv: u.Iv, A: -u.A, B: -u.B, C: -u.C}, true
}

// String renders the unit as "interval ↦ a·t²+b·t+c" (with √ markers).
func (u UReal) String() string {
	body := fmt.Sprintf("%g·t²%+g·t%+g", u.A, u.B, u.C)
	if u.Root {
		body = "√(" + body + ")"
	}
	return fmt.Sprintf("%v ↦ %s", u.Iv, body)
}

// ValueRange returns the set of values the unit function takes on its
// interval, as an interval over the reals with exact closure: a bound is
// closed iff it is attained at an instant belonging to the unit interval.
// The candidates are the two ends and an interior vertex. At an infinite
// end the candidate is the function's limit there, and an infinite bound
// is open; an extremum at an open end is a limit, not a value. Two cases
// attain a candidate's value away from it: a constant function on a
// non-degenerate interval takes its value at every instant, and a root
// unit whose radicand is negative at a candidate reads 0 (Eval's clamp)
// on a whole stretch of the interval next to it.
func (u UReal) ValueRange() (lo, hi float64, loClosed, hiClosed bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	//molint:ignore float-eq a constant function has exactly zero A and B; any other takes each extreme value at a candidate instant only
	constant := u.A == 0 && u.B == 0 && !u.Iv.IsDegenerate()
	consider := func(r float64, attained bool) {
		v := r
		if u.Root {
			v = math.Sqrt(max(r, 0))
			attained = attained || r < 0
		}
		attained = attained || constant
		switch {
		case v < lo:
			lo, loClosed = v, attained
		//molint:ignore float-eq closure bookkeeping: both sides are values at candidate extremum instants, identical bits when they denote the same bound
		case v == lo && attained:
			loClosed = true
		}
		switch {
		case v > hi:
			hi, hiClosed = v, attained
		//molint:ignore float-eq closure bookkeeping: both sides are values at candidate extremum instants, identical bits when they denote the same bound
		case v == hi && attained:
			hiClosed = true
		}
	}
	s, e := float64(u.Iv.Start), float64(u.Iv.End)
	consider(u.radicandAt(s), u.Iv.LC && !math.IsInf(s, 0))
	if t, ok := u.vertex(); ok {
		consider(u.poly(float64(t)), true)
	}
	consider(u.radicandAt(e), u.Iv.RC && !math.IsInf(e, 0))
	return lo, hi, loClosed, hiClosed
}
