package temporal

import (
	"errors"
	"fmt"
)

// IntervalOf is an interval with individually controlled closure over a
// dense, totally ordered domain: the carrier set Interval(S) of
// Section 3.2.3. Start ≤ End is required, and a degenerate interval
// (Start == End) must be closed on both sides. The domains the model
// ranges over are real types: Instant for time intervals (Interval) and
// float64 for range(real).
type IntervalOf[T ~float64] struct {
	Start, End T
	// LC and RC record whether the interval is left-closed and
	// right-closed, respectively.
	LC, RC bool
}

// Interval is a time interval, the carrier set Interval(Instant).
type Interval = IntervalOf[Instant]

// ErrInvalidInterval is returned for representations violating the
// carrier set constraints (end before start, or a half-open instant).
var ErrInvalidInterval = errors.New("temporal: invalid interval")

// NewInterval validates and returns the interval (s, e, lc, rc).
func NewInterval(s, e Instant, lc, rc bool) (Interval, error) {
	i := Interval{Start: s, End: e, LC: lc, RC: rc}
	if err := i.Validate(); err != nil {
		return Interval{}, err
	}
	return i, nil
}

// MustInterval is like NewInterval but panics on invalid input; for
// literals in tests and examples.
func MustInterval(s, e Instant, lc, rc bool) Interval {
	i, err := NewInterval(s, e, lc, rc)
	if err != nil {
		panic(err)
	}
	return i
}

// Closed returns the closed interval [s, e].
func Closed(s, e Instant) Interval { return MustInterval(s, e, true, true) }

// Open returns the open interval (s, e); s < e is required.
func Open(s, e Instant) Interval { return MustInterval(s, e, false, false) }

// LeftHalfOpen returns (s, e], the natural shape for chaining units.
func LeftHalfOpen(s, e Instant) Interval { return MustInterval(s, e, false, true) }

// RightHalfOpen returns [s, e), the natural shape for chaining units.
func RightHalfOpen(s, e Instant) Interval { return MustInterval(s, e, true, false) }

// AtInstant returns the degenerate interval [t, t].
func AtInstant(t Instant) Interval { return Interval{Start: t, End: t, LC: true, RC: true} }

// Validate checks the carrier set constraints: Start ≤ End, and a
// degenerate interval is closed on both sides.
func (i IntervalOf[T]) Validate() error {
	if !(i.Start <= i.End) { // also rejects NaN
		return fmt.Errorf("%w: start %v after end %v", ErrInvalidInterval, i.Start, i.End)
	}
	if i.Start == i.End && !(i.LC && i.RC) {
		return fmt.Errorf("%w: degenerate interval at %v must be closed", ErrInvalidInterval, i.Start)
	}
	return nil
}

// IsDegenerate reports whether the interval contains a single point.
func (i IntervalOf[T]) IsDegenerate() bool { return i.Start == i.End }

// Contains reports whether t belongs to the interval, honouring the
// closure flags (the semantics function σ of the paper).
func (i IntervalOf[T]) Contains(t T) bool {
	if t < i.Start || t > i.End {
		return false
	}
	if t == i.Start && !i.LC {
		return false
	}
	if t == i.End && !i.RC {
		return false
	}
	return true
}

// StartsAfter reports whether t lies before every point of i: t is
// below Start, or at a left-open Start. It steers every binary search
// over an ordered interval array (a range, a mapping's units).
func (i IntervalOf[T]) StartsAfter(t T) bool { return t < i.Start || (t == i.Start && !i.LC) }

// Compare is the order of the ordered interval arrays of Section 4: by
// start, a left-closed start before a left-open one, then by end. Over
// pairwise disjoint intervals it is their temporal order.
func (i IntervalOf[T]) Compare(u IntervalOf[T]) int {
	switch {
	case i.Start < u.Start:
		return -1
	case i.Start > u.Start:
		return 1
	case i.LC && !u.LC:
		return -1
	case !i.LC && u.LC:
		return 1
	case i.End < u.End:
		return -1
	case i.End > u.End:
		return 1
	}
	return 0
}

// ContainsOpen reports whether t belongs to the open part of the
// interval (the paper's σ′): strictly between Start and End, except that
// for a degenerate interval the single point counts as its open part,
// matching the special-casing of single-instant units in Section 3.2.6.
func (i IntervalOf[T]) ContainsOpen(t T) bool {
	if i.IsDegenerate() {
		return t == i.Start
	}
	return t > i.Start && t < i.End
}

// Duration returns End − Start.
func (i IntervalOf[T]) Duration() float64 { return float64(i.End - i.Start) }

// RDisjoint implements the paper's r-disjoint predicate: i ends before u
// begins (allowing a shared endpoint only if not both sides are closed).
func (i IntervalOf[T]) RDisjoint(u IntervalOf[T]) bool {
	return i.End < u.Start || (i.End == u.Start && !(i.RC && u.LC))
}

// Disjoint reports whether i and u share no point.
func (i IntervalOf[T]) Disjoint(u IntervalOf[T]) bool { return i.RDisjoint(u) || u.RDisjoint(i) }

// RAdjacent implements the paper's r-adjacent predicate over a dense
// domain: i and u are disjoint and meet exactly at i.End == u.Start
// with exactly one closed side (so their union is again an interval
// with no gap and no overlap).
func (i IntervalOf[T]) RAdjacent(u IntervalOf[T]) bool {
	return i.Disjoint(u) && i.End == u.Start && (i.RC || u.LC)
}

// Adjacent reports whether i and u are adjacent on either side.
func (i IntervalOf[T]) Adjacent(u IntervalOf[T]) bool { return i.RAdjacent(u) || u.RAdjacent(i) }

// Intersect returns the common sub-interval of i and u, if any.
func (i IntervalOf[T]) Intersect(u IntervalOf[T]) (IntervalOf[T], bool) {
	s := max(i.Start, u.Start)
	e := min(i.End, u.End)
	if s > e {
		return IntervalOf[T]{}, false
	}
	lc := i.Contains(s) && u.Contains(s)
	rc := i.Contains(e) && u.Contains(e)
	if s == e && !(lc && rc) {
		return IntervalOf[T]{}, false
	}
	return IntervalOf[T]{Start: s, End: e, LC: lc, RC: rc}, true
}

// Union returns the union of i and u as a single interval. It is only
// defined (ok == true) when the union is itself an interval, i.e. the
// two intervals intersect or are adjacent.
func (i IntervalOf[T]) Union(u IntervalOf[T]) (IntervalOf[T], bool) {
	if i.Disjoint(u) && !i.Adjacent(u) {
		return IntervalOf[T]{}, false
	}
	out := IntervalOf[T]{}
	switch {
	case i.Start < u.Start:
		out.Start, out.LC = i.Start, i.LC
	case u.Start < i.Start:
		out.Start, out.LC = u.Start, u.LC
	default:
		out.Start, out.LC = i.Start, i.LC || u.LC
	}
	switch {
	case i.End > u.End:
		out.End, out.RC = i.End, i.RC
	case u.End > i.End:
		out.End, out.RC = u.End, u.RC
	default:
		out.End, out.RC = i.End, i.RC || u.RC
	}
	return out, true
}

// Minus returns i with the points of u removed, as zero, one or two
// intervals in order.
func (i IntervalOf[T]) Minus(u IntervalOf[T]) []IntervalOf[T] {
	if i.Disjoint(u) {
		return []IntervalOf[T]{i}
	}
	var out []IntervalOf[T]
	// Left remainder: points of i before u starts.
	if i.Start < u.Start || (i.Start == u.Start && i.LC && !u.LC) {
		left := IntervalOf[T]{Start: i.Start, End: u.Start, LC: i.LC, RC: !u.LC}
		if left.Validate() == nil {
			out = append(out, left)
		}
	}
	// Right remainder: points of i after u ends.
	if i.End > u.End || (i.End == u.End && i.RC && !u.RC) {
		right := IntervalOf[T]{Start: u.End, End: i.End, LC: !u.RC, RC: i.RC}
		if right.Validate() == nil {
			out = append(out, right)
		}
	}
	return out
}

// String formats the interval with standard bracket notation, e.g.
// "[1, 2)" or "(0, 5]".
func (i IntervalOf[T]) String() string {
	lb, rb := "(", ")"
	if i.LC {
		lb = "["
	}
	if i.RC {
		rb = "]"
	}
	return fmt.Sprintf("%s%v, %v%s", lb, i.Start, i.End, rb)
}
