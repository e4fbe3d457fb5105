// Package moving implements the paper's primary contribution as a
// library: the temporal ("moving") data types in sliced representation —
// MBool, MInt, MString (mapping(const)), MReal (mapping(ureal)), MPoint
// (mapping(upoint)), MPoints, MLine and MRegion — together with the
// operations of the abstract model that the paper names: projections
// into domain and range (deftime, trajectory, ...), interaction with
// time (atinstant, atperiods, initial, final), lifted predicates and
// numeric operations (inside, distance, speed, area, ...), and the
// aggregations atmin/atmax. Binary lifted operations traverse the
// refinement partition of the two unit sequences (Figure 8, Section 5.2)
// and apply a unit-pair kernel per element.
package moving

import (
	"movingdb/internal/base"
	"movingdb/internal/mapping"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// MBool is the moving bool type: mapping(const(bool)).
type MBool struct {
	M mapping.Mapping[units.UBool]
}

// NewMBool validates units and builds a moving bool.
func NewMBool(us ...units.UBool) (MBool, error) {
	m, err := mapping.New(us...)
	if err != nil {
		return MBool{}, err
	}
	return MBool{M: m}, nil
}

// MustMBool is like NewMBool but panics on invalid input.
func MustMBool(us ...units.UBool) MBool {
	m, err := NewMBool(us...)
	if err != nil {
		panic(err)
	}
	return m
}

// AtInstant returns the value at instant t (⊥ when undefined).
func (b MBool) AtInstant(t temporal.Instant) base.BoolVal {
	u, ok := b.M.UnitAt(t)
	if !ok {
		return base.Undef[bool]()
	}
	return base.Def(u.V)
}

// DefTime returns the time domain of the moving bool.
func (b MBool) DefTime() temporal.Periods { return b.M.DefTime() }

// AtPeriods restricts the moving bool to the given periods.
func (b MBool) AtPeriods(p temporal.Periods) MBool { return MBool{M: b.M.AtPeriods(p)} }

// WhenTrue returns the periods during which the value is true — the
// standard way to turn a lifted predicate back into a time domain
// restriction.
func (b MBool) WhenTrue() temporal.Periods {
	var ivs []temporal.Interval
	for _, u := range b.M.Units() {
		if u.V {
			ivs = append(ivs, u.Iv)
		}
	}
	return temporal.MustPeriods(ivs...)
}

// Not returns the pointwise negation.
func (b MBool) Not() MBool {
	out := make([]units.UBool, 0, b.M.Len())
	for _, u := range b.M.Units() {
		out = append(out, units.UBool{Iv: u.Iv, V: !u.V})
	}
	return MBool{M: mapping.FromOrdered(out)}
}

// Initial returns the (instant, value) pair at the start of the
// definition time; ok is false for the empty moving bool.
func (b MBool) Initial() (base.Intime[bool], bool) {
	u, ok := b.M.InitialUnit()
	if !ok {
		return base.Intime[bool]{}, false
	}
	return base.Intime[bool]{Inst: u.Iv.Start, Val: u.V}, true
}

// Final returns the (instant, value) pair at the end of the definition
// time; ok is false for the empty moving bool.
func (b MBool) Final() (base.Intime[bool], bool) {
	u, ok := b.M.FinalUnit()
	if !ok {
		return base.Intime[bool]{}, false
	}
	return base.Intime[bool]{Inst: u.Iv.End, Val: u.V}, true
}

// String renders the moving bool.
func (b MBool) String() string { return b.M.String() }

// MInt is the moving int type: mapping(const(int)).
type MInt struct {
	M mapping.Mapping[units.UInt]
}

// NewMInt validates units and builds a moving int.
func NewMInt(us ...units.UInt) (MInt, error) {
	m, err := mapping.New(us...)
	if err != nil {
		return MInt{}, err
	}
	return MInt{M: m}, nil
}

// MustMInt is like NewMInt but panics on invalid input.
func MustMInt(us ...units.UInt) MInt {
	m, err := NewMInt(us...)
	if err != nil {
		panic(err)
	}
	return m
}

// AtInstant returns the value at instant t (⊥ when undefined).
func (b MInt) AtInstant(t temporal.Instant) base.IntVal {
	u, ok := b.M.UnitAt(t)
	if !ok {
		return base.Undef[int64]()
	}
	return base.Def(u.V)
}

// DefTime returns the time domain.
func (b MInt) DefTime() temporal.Periods { return b.M.DefTime() }

// AtPeriods restricts the moving int to the given periods.
func (b MInt) AtPeriods(p temporal.Periods) MInt { return MInt{M: b.M.AtPeriods(p)} }

// String renders the moving int.
func (b MInt) String() string { return b.M.String() }

// MString is the moving string type: mapping(const(string)).
type MString struct {
	M mapping.Mapping[units.UString]
}

// NewMString validates units and builds a moving string.
func NewMString(us ...units.UString) (MString, error) {
	m, err := mapping.New(us...)
	if err != nil {
		return MString{}, err
	}
	return MString{M: m}, nil
}

// AtInstant returns the value at instant t (⊥ when undefined).
func (b MString) AtInstant(t temporal.Instant) base.StringVal {
	u, ok := b.M.UnitAt(t)
	if !ok {
		return base.Undef[string]()
	}
	return base.Def(u.V)
}

// DefTime returns the time domain.
func (b MString) DefTime() temporal.Periods { return b.M.DefTime() }

// AtPeriods restricts the moving string to the given periods.
func (b MString) AtPeriods(p temporal.Periods) MString { return MString{M: b.M.AtPeriods(p)} }

// String renders the moving string.
func (b MString) String() string { return b.M.String() }
