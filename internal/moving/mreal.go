package moving

import (
	"math"
	"slices"

	"movingdb/internal/base"
	"movingdb/internal/mapping"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// MReal is the moving real type: mapping(ureal).
type MReal struct {
	M mapping.Mapping[units.UReal]
}

// NewMReal validates units and builds a moving real.
func NewMReal(us ...units.UReal) (MReal, error) {
	m, err := mapping.New(us...)
	if err != nil {
		return MReal{}, err
	}
	return MReal{M: m}, nil
}

// MustMReal is like NewMReal but panics on invalid input.
func MustMReal(us ...units.UReal) MReal {
	m, err := NewMReal(us...)
	if err != nil {
		panic(err)
	}
	return m
}

// AtInstant returns the value at instant t (⊥ when undefined).
func (r MReal) AtInstant(t temporal.Instant) base.RealVal {
	u, ok := r.M.UnitAt(t)
	if !ok {
		return base.Undef[float64]()
	}
	return base.Def(u.Eval(t))
}

// DefTime returns the time domain.
func (r MReal) DefTime() temporal.Periods { return r.M.DefTime() }

// Present reports whether the moving real is defined at t.
func (r MReal) Present(t temporal.Instant) bool { return r.M.Present(t) }

// AtPeriods restricts the moving real to the given periods.
func (r MReal) AtPeriods(p temporal.Periods) MReal { return MReal{M: r.M.AtPeriods(p)} }

// Initial returns the (instant, value) pair at the start of the
// definition time (the initial operation of Section 2); ok is false for
// the empty moving real.
func (r MReal) Initial() (base.Intime[float64], bool) {
	u, ok := r.M.InitialUnit()
	if !ok {
		return base.Intime[float64]{}, false
	}
	return base.Intime[float64]{Inst: u.Iv.Start, Val: u.Eval(u.Iv.Start)}, true
}

// Final returns the (instant, value) pair at the end of the definition
// time; ok is false for the empty moving real.
func (r MReal) Final() (base.Intime[float64], bool) {
	u, ok := r.M.FinalUnit()
	if !ok {
		return base.Intime[float64]{}, false
	}
	return base.Intime[float64]{Inst: u.Iv.End, Val: u.Eval(u.Iv.End)}, true
}

// Min returns the global minimum value and the earliest instant where it
// is attained (at an open or infinite end, approached). ok is false for
// the empty moving real and for one whose least value is no finite real:
// it falls without bound towards an infinite end of its definition time,
// or below −MaxFloat64 at a finite instant. ±∞ is not a real value.
func (r MReal) Min() (float64, temporal.Instant, bool) {
	best, at := math.Inf(1), temporal.Instant(0)
	for _, u := range r.M.Units() {
		if v, t := u.Min(); v < best {
			best, at = v, t
		}
	}
	if math.IsInf(best, 0) { // no unit, or one that runs off or overflows
		return 0, 0, false
	}
	return best, at, true
}

// Max returns the global maximum value and the earliest instant where it
// is attained, with Min's rule: ok is false for the empty moving real
// and for one whose greatest value is no finite real.
func (r MReal) Max() (float64, temporal.Instant, bool) {
	best, at := math.Inf(-1), temporal.Instant(0)
	for _, u := range r.M.Units() {
		if v, t := u.Max(); v > best {
			best, at = v, t
		}
	}
	if math.IsInf(best, 0) { // no unit, or one that runs off or overflows
		return 0, 0, false
	}
	return best, at, true
}

// AtMin restricts the moving real to all times at which it takes its
// global minimum (the atmin operation of Section 2). The result
// typically consists of degenerate units; a unit identically at the
// minimum survives whole.
func (r MReal) AtMin() MReal {
	mn, _, ok := r.Min()
	if !ok {
		return MReal{}
	}
	return r.atValueNear(mn)
}

// AtMax restricts the moving real to all times at which it takes its
// global maximum.
func (r MReal) AtMax() MReal {
	mx, _, ok := r.Max()
	if !ok {
		return MReal{}
	}
	return r.atValueNear(mx)
}

// nearTolerance is atValueNear's tolerance around v.
func nearTolerance(v float64) float64 { return 1e-9 * max(1, math.Abs(v)) }

// atValueNear restricts the moving real to the times where it equals v,
// with a relative tolerance absorbing the one-ulp discrepancies between
// adjacent units computed from different sources (e.g. distance units of
// consecutive trajectory legs).
func (r MReal) atValueNear(v float64) MReal {
	tol := nearTolerance(v)
	var bld mapping.Builder[units.UReal]
	var buf [5]temporal.Instant // InstantsNear yields at most five
	for _, u := range r.M.Units() {
		ts, all := u.InstantsNear(buf[:0], v, tol)
		if all {
			bld.Append(u)
			continue
		}
		for _, t := range ts {
			bld.Append(u.WithInterval(temporal.AtInstant(t)))
		}
	}
	return MReal{M: bld.MustBuild()}
}

// At restricts the moving real to the times where its value lies in the
// given real range.
func (r MReal) At(rng temporal.RangeOf[float64]) MReal {
	var bld mapping.Builder[units.UReal]
	for _, u := range r.M.Units() {
		for _, piece := range urealInRange(u, rng) {
			bld.Append(piece)
		}
	}
	return MReal{M: bld.MustBuild()}
}

// urealInRange returns the sub-units of u during which its value lies in
// rng, in temporal order.
func urealInRange(u units.UReal, rng temporal.RangeOf[float64]) []units.UReal {
	// Collect candidate boundary crossing times for all interval
	// endpoints of the range, then classify the pieces in between.
	var critical []temporal.Instant
	for _, iv := range rng.Intervals() {
		for _, v := range []float64{iv.Start, iv.End} {
			ts, _ := u.TimesAt(v)
			critical = append(critical, ts...)
		}
	}
	pieces := splitInterval(u.Iv, critical)
	var out []units.UReal
	for _, p := range pieces {
		mid := temporal.Instant((float64(p.Start) + float64(p.End)) / 2)
		if rng.Contains(u.Eval(mid)) {
			out = append(out, u.WithInterval(p))
		}
	}
	return out
}

// splitInterval splits iv at the given interior instants into an ordered
// sequence of sub-intervals (degenerate pieces at the cut instants, open
// pieces in between), preserving the outer closures.
func splitInterval(iv temporal.Interval, cuts []temporal.Instant) []temporal.Interval {
	if iv.IsDegenerate() {
		return []temporal.Interval{iv}
	}
	inner := make([]temporal.Instant, 0, len(cuts))
	for _, c := range cuts {
		if iv.ContainsOpen(c) {
			inner = append(inner, c)
		}
	}
	if len(inner) == 0 {
		return []temporal.Interval{iv}
	}
	slices.Sort(inner)
	inner = slices.Compact(inner)
	var out []temporal.Interval
	cur, curLC := iv.Start, iv.LC
	for _, c := range inner {
		out = append(out,
			temporal.Interval{Start: cur, End: c, LC: curLC, RC: false},
			temporal.AtInstant(c))
		cur, curLC = c, false
	}
	out = append(out, temporal.Interval{Start: cur, End: iv.End, LC: curLC, RC: iv.RC})
	return out
}

// CmpConst compares the moving real against a constant and returns the
// moving bool of the pointwise predicate selected by keep (a function on
// the sign −1/0/+1 of value − v). It underlies the lifted <, ≤, =, ≥, >.
func (r MReal) CmpConst(v float64, keep func(sign int) bool) MBool {
	var bld mapping.Builder[units.UBool]
	for _, u := range r.M.Units() {
		less, equal, greater := u.CmpIntervals(v)
		type piece struct {
			iv   temporal.Interval
			sign int
		}
		var ps []piece
		for _, iv := range less {
			ps = append(ps, piece{iv, -1})
		}
		for _, iv := range equal {
			ps = append(ps, piece{iv, 0})
		}
		for _, iv := range greater {
			ps = append(ps, piece{iv, 1})
		}
		// The pieces are disjoint; order them temporally.
		slices.SortFunc(ps, func(a, b piece) int { return a.iv.Compare(b.iv) })
		for _, p := range ps {
			bld.Append(units.UBool{Iv: p.iv, V: keep(p.sign)})
		}
	}
	return MBool{M: bld.MustBuild()}
}

// Less returns the moving bool of value < v.
func (r MReal) Less(v float64) MBool {
	return r.CmpConst(v, func(s int) bool { return s < 0 })
}

// Greater returns the moving bool of value > v.
func (r MReal) Greater(v float64) MBool {
	return r.CmpConst(v, func(s int) bool { return s > 0 })
}

// Integral returns ∫ value dt over the definition time, computed
// exactly for polynomial units and by closed form for root units where
// possible (falling back to Simpson quadrature for roots, which is exact
// for quadratics and accurate for the √quadratic class).
func (r MReal) Integral() float64 {
	var total float64
	for _, u := range r.M.Units() {
		if u.Iv.IsDegenerate() {
			continue
		}
		lo, hi := float64(u.Iv.Start), float64(u.Iv.End)
		if !u.Root {
			anti := func(t float64) float64 { return u.A*t*t*t/3 + u.B*t*t/2 + u.C*t }
			total += anti(hi) - anti(lo)
			continue
		}
		// Composite Simpson on the square root of the quadratic.
		const steps = 64
		h := (hi - lo) / steps
		sum := u.Eval(temporal.Instant(lo)) + u.Eval(temporal.Instant(hi))
		for k := 1; k < steps; k++ {
			t := lo + float64(k)*h
			w := 2.0
			if k%2 == 1 {
				w = 4
			}
			sum += w * u.Eval(temporal.Instant(t))
		}
		total += sum * h / 3
	}
	return total
}

// String renders the moving real.
func (r MReal) String() string { return r.M.String() }

// RangeValues projects the moving real into its value set — the
// rangevalues operation of the abstract model — as a canonical
// range(real) value with exact closure at the bounds.
func (r MReal) RangeValues() temporal.RangeOf[float64] {
	ivs := make([]temporal.IntervalOf[float64], 0, r.M.Len())
	for _, u := range r.M.Units() {
		lo, hi, lc, rc := u.ValueRange()
		iv := temporal.IntervalOf[float64]{Start: lo, End: hi, LC: lc, RC: rc}
		if iv.Validate() != nil {
			continue // a limit never attained, or no value at all
		}
		ivs = append(ivs, iv)
	}
	rng, err := temporal.NewRange(ivs...)
	if err != nil {
		panic(err) // intervals above are validated
	}
	return rng
}
