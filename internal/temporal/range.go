package temporal

import (
	"fmt"
	"slices"
	"strings"
)

// RangeOf is the range(α) type constructor of Section 3.2.3 over a real
// domain: a finite set of pairwise disjoint, non-adjacent intervals in
// order. The canonical (minimal, unique) representation is maintained
// by all constructors and operations, so two values denote the same
// point set iff they are slice-equal. range(int) and range(string) are
// not offered: no operation produces or consumes one.
type RangeOf[T ~float64] struct {
	ivs []IntervalOf[T]
}

// Periods is the range(instant) type.
type Periods = RangeOf[Instant]

// NewRange builds a canonical range from arbitrary intervals: the input
// is sorted and overlapping or adjacent intervals are merged. Invalid
// intervals cause an error.
func NewRange[T ~float64](ivs ...IntervalOf[T]) (RangeOf[T], error) {
	for _, iv := range ivs {
		if err := iv.Validate(); err != nil {
			return RangeOf[T]{}, err
		}
	}
	work := slices.Clone(ivs)
	slices.SortFunc(work, IntervalOf[T].Compare)
	var out []IntervalOf[T]
	for _, iv := range work {
		if n := len(out); n > 0 {
			if u, ok := out[n-1].Union(iv); ok {
				out[n-1] = u
				continue
			}
		}
		out = append(out, iv)
	}
	return RangeOf[T]{ivs: out}, nil
}

// NewOrderedRange validates intervals that are already canonical — a
// stored interval array — and wraps them without copying. Unlike
// NewRange it neither sorts nor merges: an array out of order, or with
// overlapping or adjacent intervals, is invalid.
func NewOrderedRange[T ~float64](ivs []IntervalOf[T]) (RangeOf[T], error) {
	r := RangeOf[T]{ivs: ivs}
	if err := r.Validate(); err != nil {
		return RangeOf[T]{}, err
	}
	return r, nil
}

// MustPeriods is NewRange over instants, panicking on invalid intervals.
func MustPeriods(ivs ...Interval) Periods {
	p, err := NewRange(ivs...)
	if err != nil {
		panic(err)
	}
	return p
}

// Intervals returns the canonical interval sequence (shared slice; do
// not modify).
func (r RangeOf[T]) Intervals() []IntervalOf[T] { return r.ivs }

// Len returns the number of intervals.
func (r RangeOf[T]) Len() int { return len(r.ivs) }

// IsEmpty reports whether the range contains no point.
func (r RangeOf[T]) IsEmpty() bool { return len(r.ivs) == 0 }

// Contains reports whether t belongs to the range, by binary search over
// the ordered intervals.
func (r RangeOf[T]) Contains(t T) bool {
	lo, hi := 0, len(r.ivs)
	for lo < hi {
		mid := (lo + hi) / 2
		iv := r.ivs[mid]
		switch {
		case iv.Contains(t):
			return true
		case iv.StartsAfter(t):
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return false
}

// Duration returns the total length of all intervals.
func (r RangeOf[T]) Duration() float64 {
	var d float64
	for _, iv := range r.ivs {
		d += iv.Duration()
	}
	return d
}

// Min returns the smallest point (or the infimum, if the first interval
// is left-open); ok is false for an empty range.
func (r RangeOf[T]) Min() (T, bool) {
	if len(r.ivs) == 0 {
		return 0, false
	}
	return r.ivs[0].Start, true
}

// Max returns the largest point (or the supremum); ok is false for an
// empty range.
func (r RangeOf[T]) Max() (T, bool) {
	if len(r.ivs) == 0 {
		return 0, false
	}
	return r.ivs[len(r.ivs)-1].End, true
}

// Union returns the set union of r and s, again canonical.
func (r RangeOf[T]) Union(s RangeOf[T]) RangeOf[T] {
	out, err := NewRange(slices.Concat(r.ivs, s.ivs)...)
	if err != nil {
		// Inputs were canonical, so this cannot happen.
		panic(fmt.Sprintf("temporal: union of canonical ranges failed: %v", err))
	}
	return out
}

// Intersect returns the set intersection of r and s by a linear merge of
// the two ordered interval sequences.
func (r RangeOf[T]) Intersect(s RangeOf[T]) RangeOf[T] {
	var out []IntervalOf[T]
	i, j := 0, 0
	for i < len(r.ivs) && j < len(s.ivs) {
		a, b := r.ivs[i], s.ivs[j]
		if iv, ok := a.Intersect(b); ok {
			out = append(out, iv)
		}
		// Advance the interval that ends first.
		if a.End < b.End || (a.End == b.End && !a.RC) {
			i++
		} else {
			j++
		}
	}
	return RangeOf[T]{ivs: out}
}

// Minus returns the points of r not in s.
func (r RangeOf[T]) Minus(s RangeOf[T]) RangeOf[T] {
	var out []IntervalOf[T]
	for _, a := range r.ivs {
		rest := []IntervalOf[T]{a}
		for _, b := range s.ivs {
			var next []IntervalOf[T]
			for _, x := range rest {
				next = append(next, x.Minus(b)...)
			}
			rest = next
			if len(rest) == 0 {
				break
			}
		}
		out = append(out, rest...)
	}
	res, err := NewRange(out...)
	if err != nil {
		panic(fmt.Sprintf("temporal: minus produced invalid intervals: %v", err))
	}
	return res
}

// Equal reports whether r and s denote the same point set. Because both
// are canonical, this is plain representation equality — the property
// the paper's ordered-array design is built to guarantee.
func (r RangeOf[T]) Equal(s RangeOf[T]) bool { return slices.Equal(r.ivs, s.ivs) }

// Validate checks canonicity: intervals valid, ordered, pairwise
// disjoint and non-adjacent. Constructors maintain this; Validate exists
// for values deserialised from storage.
func (r RangeOf[T]) Validate() error {
	for k, iv := range r.ivs {
		if err := iv.Validate(); err != nil {
			return err
		}
		if k > 0 {
			prev := r.ivs[k-1]
			if !prev.RDisjoint(iv) {
				return fmt.Errorf("%w: intervals %v and %v out of order or overlapping", ErrInvalidInterval, prev, iv)
			}
			if prev.Adjacent(iv) {
				return fmt.Errorf("%w: intervals %v and %v adjacent (not minimal)", ErrInvalidInterval, prev, iv)
			}
		}
	}
	return nil
}

// String formats the range as "{[a, b), (c, d]}".
func (r RangeOf[T]) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for k, iv := range r.ivs {
		if k > 0 {
			b.WriteString(", ")
		}
		b.WriteString(iv.String())
	}
	b.WriteByte('}')
	return b.String()
}
