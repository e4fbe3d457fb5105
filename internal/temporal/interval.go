package temporal

import (
	"errors"
	"fmt"
)

// Interval is a time interval with individually controlled closure:
// the carrier set Interval(Instant) of Section 3.2.3. Start ≤ End is
// required, and a degenerate interval (Start == End) must be closed on
// both sides.
type Interval struct {
	Start, End Instant
	// LC and RC record whether the interval is left-closed and
	// right-closed, respectively.
	LC, RC bool
}

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
func (i Interval) Validate() error {
	if !(i.Start <= i.End) { // also rejects NaN
		return fmt.Errorf("%w: start %v after end %v", ErrInvalidInterval, i.Start, i.End)
	}
	if i.Start == i.End && !(i.LC && i.RC) {
		return fmt.Errorf("%w: degenerate interval at %v must be closed", ErrInvalidInterval, i.Start)
	}
	return nil
}

// IsDegenerate reports whether the interval contains a single instant.
func (i Interval) IsDegenerate() bool { return i.Start == i.End }

// Contains reports whether instant t belongs to the interval, honouring
// the closure flags (the semantics function σ of the paper).
func (i Interval) Contains(t Instant) bool {
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

// ContainsOpen reports whether t belongs to the open part of the
// interval (the paper's σ′): strictly between Start and End, except that
// for a degenerate interval the single instant counts as its open part,
// matching the special-casing of single-instant units in Section 3.2.6.
func (i Interval) ContainsOpen(t Instant) bool {
	if i.IsDegenerate() {
		return t == i.Start
	}
	return t > i.Start && t < i.End
}

// Duration returns End − Start.
func (i Interval) Duration() float64 { return float64(i.End - i.Start) }

// RDisjoint implements the paper's r-disjoint predicate: i ends before u
// begins (allowing a shared endpoint only if not both sides are closed).
func (i Interval) RDisjoint(u Interval) bool {
	return i.End < u.Start || (i.End == u.Start && !(i.RC && u.LC))
}

// Disjoint reports whether i and u share no instant.
func (i Interval) Disjoint(u Interval) bool { return i.RDisjoint(u) || u.RDisjoint(i) }

// RAdjacent implements the paper's r-adjacent predicate over the
// continuous time domain: i and u are disjoint and meet exactly at
// i.End == u.Start with exactly one closed side (so their union is again
// an interval with no gap and no overlap).
func (i Interval) RAdjacent(u Interval) bool {
	return i.Disjoint(u) && i.End == u.Start && (i.RC || u.LC)
}

// Adjacent reports whether i and u are adjacent on either side.
func (i Interval) Adjacent(u Interval) bool { return i.RAdjacent(u) || u.RAdjacent(i) }

// Before reports whether every instant of i is ≤ every instant of u,
// with i strictly preceding u as a whole. It induces the total order on
// the disjoint intervals of a Periods value.
func (i Interval) Before(u Interval) bool { return i.RDisjoint(u) }

// Intersect returns the common sub-interval of i and u, if any.
func (i Interval) Intersect(u Interval) (Interval, bool) {
	s := i.Start.Max(u.Start)
	e := i.End.Min(u.End)
	if s > e {
		return Interval{}, false
	}
	lc := i.Contains(s) && u.Contains(s)
	rc := i.Contains(e) && u.Contains(e)
	if s == e {
		if lc && rc {
			return AtInstant(s), true
		}
		return Interval{}, false
	}
	return Interval{Start: s, End: e, LC: lc, RC: rc}, true
}

// Union returns the union of i and u as a single interval. It is only
// defined (ok == true) when the union is itself an interval, i.e. the
// two intervals intersect or are adjacent.
func (i Interval) Union(u Interval) (Interval, bool) {
	if i.Disjoint(u) && !i.Adjacent(u) {
		return Interval{}, false
	}
	out := Interval{}
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

// Minus returns i with the instants of u removed, as zero, one or two
// intervals in temporal order.
func (i Interval) Minus(u Interval) []Interval {
	if i.Disjoint(u) {
		return []Interval{i}
	}
	var out []Interval
	// Left remainder: instants of i before u starts.
	if i.Start < u.Start || (i.Start == u.Start && i.LC && !u.LC) {
		left := Interval{Start: i.Start, End: u.Start, LC: i.LC, RC: !u.LC}
		if left.Validate() == nil {
			out = append(out, left)
		}
	}
	// Right remainder: instants of i after u ends.
	if i.End > u.End || (i.End == u.End && i.RC && !u.RC) {
		right := Interval{Start: u.End, End: i.End, LC: !u.RC, RC: i.RC}
		if right.Validate() == nil {
			out = append(out, right)
		}
	}
	return out
}

// String formats the interval with standard bracket notation, e.g.
// "[1, 2)" or "(0, 5]".
func (i Interval) String() string {
	lb, rb := "(", ")"
	if i.LC {
		lb = "["
	}
	if i.RC {
		rb = "]"
	}
	return fmt.Sprintf("%s%v, %v%s", lb, i.Start, i.End, rb)
}
