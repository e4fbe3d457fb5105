// Package mapping implements the mapping(unit) type constructor of
// Section 3.2.4: the sliced representation of a moving object as an
// ordered array of temporal units with pairwise disjoint intervals,
// where adjacent units must carry distinct unit functions (minimal,
// unique representation). The array is ordered by unit interval, which
// gives O(log n) instant lookup (binary search, Section 5.1) and O(n+m)
// parallel traversal for binary operations (refinement partition,
// Section 5.2).
package mapping

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// ErrInvalidMapping reports a violation of the mapping carrier set
// constraints.
var ErrInvalidMapping = errors.New("mapping: invalid sliced representation")

// Mapping is a sliced representation over unit type U. The zero value is
// the everywhere-undefined moving object.
type Mapping[U units.Unit[U]] struct {
	us []U
}

// New validates and builds a mapping from units: unit intervals must be
// pairwise disjoint and adjacent units must differ in their unit
// function. Units may be given in any order; they are sorted by
// interval.
func New[U units.Unit[U]](us ...U) (Mapping[U], error) {
	work := make([]U, len(us))
	copy(work, us)
	slices.SortFunc(work, func(a, b U) int { return a.Interval().Compare(b.Interval()) })
	m := Mapping[U]{us: work}
	if err := m.Validate(); err != nil {
		return Mapping[U]{}, err
	}
	return m, nil
}

// Must is like New but panics on invalid input.
func Must[U units.Unit[U]](us ...U) Mapping[U] {
	m, err := New(us...)
	if err != nil {
		panic(err)
	}
	return m
}

// NewOrdered validates units that are already in interval order — a
// stored units array — and wraps them without copying. Unlike New it
// does not sort: an array out of order is invalid.
func NewOrdered[U units.Unit[U]](us []U) (Mapping[U], error) {
	m := Mapping[U]{us: us}
	if err := m.Validate(); err != nil {
		return Mapping[U]{}, err
	}
	return m, nil
}

// FromOrdered wraps an already ordered and validated unit slice without
// copying or checking; for trusted construction paths (operations
// produce ordered output by construction).
func FromOrdered[U units.Unit[U]](us []U) Mapping[U] {
	m := Mapping[U]{us: us}
	debugValidate("FromOrdered", m)
	return m
}

// Validate checks the carrier set constraints of Section 3.2.4.
func (m Mapping[U]) Validate() error {
	// Each unit is read once and carried as prev: stored arrays are
	// checked on every decode, and a generic call on a slice element
	// costs a copy per call.
	var prev U
	var pi temporal.Interval
	for i, u := range m.us {
		ci := u.Interval()
		if err := ci.Validate(); err != nil {
			return fmt.Errorf("%w: unit %d: %v", ErrInvalidMapping, i, err)
		}
		if i > 0 {
			if !pi.RDisjoint(ci) {
				return fmt.Errorf("%w: unit intervals %v and %v overlap or are out of order", ErrInvalidMapping, pi, ci)
			}
			// In order, two units can only meet at the earlier one's end.
			if pi.RAdjacent(ci) && prev.EqualFunc(u) {
				return fmt.Errorf("%w: adjacent units %v and %v carry equal values", ErrInvalidMapping, pi, ci)
			}
		}
		prev, pi = u, ci
	}
	return nil
}

// Units returns the ordered unit array (shared; read-only).
func (m Mapping[U]) Units() []U { return m.us }

// Len returns the number of units.
func (m Mapping[U]) Len() int { return len(m.us) }

// IsEmpty reports whether the moving object is nowhere defined.
func (m Mapping[U]) IsEmpty() bool { return len(m.us) == 0 }

// FindUnit returns the index of the unit whose interval contains t, by
// binary search; ok is false if t lies in no unit.
func (m Mapping[U]) FindUnit(t temporal.Instant) (int, bool) {
	lo, hi := 0, len(m.us)
	for lo < hi {
		mid := (lo + hi) / 2
		iv := m.us[mid].Interval()
		switch {
		case iv.Contains(t):
			return mid, true
		case iv.StartsAfter(t):
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return lo, false
}

// UnitAt returns the unit whose interval contains t.
func (m Mapping[U]) UnitAt(t temporal.Instant) (U, bool) {
	var zero U
	i, ok := m.FindUnit(t)
	if !ok {
		return zero, false
	}
	return m.us[i], true
}

// Present reports whether the moving object is defined at t.
func (m Mapping[U]) Present(t temporal.Instant) bool {
	_, ok := m.FindUnit(t)
	return ok
}

// DefTime returns the set of time intervals at which the object is
// defined (the domain projection of the abstract model).
func (m Mapping[U]) DefTime() temporal.Periods {
	ivs := make([]temporal.Interval, 0, len(m.us))
	for _, u := range m.us {
		ivs = append(ivs, u.Interval())
	}
	return temporal.MustPeriods(ivs...)
}

// Intervals returns the ordered unit intervals.
func (m Mapping[U]) Intervals() []temporal.Interval {
	ivs := make([]temporal.Interval, 0, len(m.us))
	for _, u := range m.us {
		ivs = append(ivs, u.Interval())
	}
	return ivs
}

// InitialUnit returns the first unit; ok is false for an empty mapping.
func (m Mapping[U]) InitialUnit() (U, bool) {
	var zero U
	if len(m.us) == 0 {
		return zero, false
	}
	return m.us[0], true
}

// FinalUnit returns the last unit; ok is false for an empty mapping.
func (m Mapping[U]) FinalUnit() (U, bool) {
	var zero U
	if len(m.us) == 0 {
		return zero, false
	}
	return m.us[len(m.us)-1], true
}

// AtPeriods restricts the moving object to the given time periods,
// clipping units at period boundaries: one clipped unit per pair of a
// unit and a period that meet, listed by index (see temporal.Seek).
func (m Mapping[U]) AtPeriods(p temporal.Periods) Mapping[U] {
	var out []U
	ps := p.Intervals()
	b := 0 // the period the last pair covered, where the next seek starts
	for _, u := range m.us {
		iu := u.Interval()
		if b < len(ps) && ps[b].RDisjoint(iu) {
			if b++; b < len(ps) && ps[b].RDisjoint(iu) {
				b = temporal.Seek(ps, b+1, iu, func(iv temporal.Interval) temporal.Interval { return iv })
			}
		}
		if b == len(ps) {
			break
		}
		for k := b; k < len(ps) && !iu.RDisjoint(ps[k]); k++ {
			b = k
			iv, _ := iu.Intersect(ps[k])
			out = appendMerged(out, u.WithInterval(iv))
		}
	}
	res := Mapping[U]{us: out}
	debugValidate("AtPeriods", res)
	return res
}

// Merge returns the one unit that prev and u make when u follows prev
// adjacently with the same unit function (the concat operation of
// Section 5.2, O(1) per unit), and false when they stay two units. It
// is the rule that keeps Builder's and AtPeriods' results minimal, for
// callers that fold a unit stream without building the mapping.
func Merge[U units.Unit[U]](prev, u U) (U, bool) {
	if !prev.EqualFunc(u) { // first: it refuses most neighbours without reading intervals
		return prev, false
	}
	pi, ci := prev.Interval(), u.Interval()
	if merged, ok := pi.Union(ci); ok && pi.Adjacent(ci) {
		return prev.WithInterval(merged), true
	}
	return prev, false
}

// appendMerged appends unit u, merging it into the previous unit when
// Merge joins them.
func appendMerged[U units.Unit[U]](us []U, u U) []U {
	if n := len(us); n > 0 {
		if merged, ok := Merge(us[n-1], u); ok {
			us[n-1] = merged
			return us
		}
	}
	return append(us, u)
}

// Builder accumulates units in temporal order, merging adjacent equal
// units; it is the standard way for operations to assemble result
// mappings in O(1) per appended unit.
type Builder[U units.Unit[U]] struct {
	us  []U
	err error
}

// Grow makes room for n more units, for operations that know a bound on
// their result (a sweep over n and m units emits fewer than n + m).
func (b *Builder[U]) Grow(n int) { b.us = slices.Grow(b.us, n) }

// Append adds a unit that must start no earlier than the previous one
// ends; violations are recorded and surfaced by Build.
func (b *Builder[U]) Append(u U) {
	if b.err != nil {
		return
	}
	if n := len(b.us); n > 0 {
		pi := b.us[n-1].Interval()
		if !pi.RDisjoint(u.Interval()) {
			b.err = fmt.Errorf("%w: unit %v appended after %v", ErrInvalidMapping, u.Interval(), pi)
			return
		}
	}
	b.us = appendMerged(b.us, u)
}

// Build returns the assembled mapping.
func (b *Builder[U]) Build() (Mapping[U], error) {
	if b.err != nil {
		return Mapping[U]{}, b.err
	}
	m := Mapping[U]{us: b.us}
	debugValidate("Builder.Build", m)
	return m, nil
}

// MustBuild returns the assembled mapping and panics on an invalid
// append sequence (which indicates a bug in the calling operation).
func (b *Builder[U]) MustBuild() Mapping[U] {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// String renders the mapping unit by unit.
func (m Mapping[U]) String() string {
	var b strings.Builder
	b.WriteString("mapping[")
	for i, u := range m.us {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%v", u)
	}
	b.WriteByte(']')
	return b.String()
}
