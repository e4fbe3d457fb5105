package mapping

import (
	"testing"
	"testing/quick"

	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

func iv(s, e float64) temporal.Interval {
	return temporal.Closed(temporal.Instant(s), temporal.Instant(e))
}

func rho(s, e float64) temporal.Interval { // right-half-open [s, e)
	return temporal.RightHalfOpen(temporal.Instant(s), temporal.Instant(e))
}

func ub(i temporal.Interval, v bool) units.UBool { return units.UBool{Iv: i, V: v} }

func TestNewSortsAndValidates(t *testing.T) {
	m, err := New(
		ub(rho(5, 7), false),
		ub(rho(0, 2), true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if m.Units()[0].Iv.Start != 0 {
		t.Error("units not sorted")
	}
	// Overlapping units rejected.
	if _, err := New(ub(iv(0, 5), true), ub(iv(3, 8), false)); err == nil {
		t.Error("overlapping units accepted")
	}
	// Adjacent units with equal value rejected (not minimal).
	if _, err := New(ub(rho(0, 2), true), ub(rho(2, 4), true)); err == nil {
		t.Error("adjacent equal units accepted")
	}
	// Adjacent with distinct values fine.
	if _, err := New(ub(rho(0, 2), true), ub(rho(2, 4), false)); err != nil {
		t.Errorf("adjacent distinct units rejected: %v", err)
	}
	// Disjoint non-adjacent equal units fine.
	if _, err := New(ub(iv(0, 1), true), ub(iv(3, 4), true)); err != nil {
		t.Errorf("gap-separated equal units rejected: %v", err)
	}
}

func TestFindUnit(t *testing.T) {
	m := Must(
		ub(rho(0, 2), true),
		ub(rho(3, 5), false),
		ub(iv(7, 9), true),
	)
	cases := []struct {
		t   float64
		idx int
		ok  bool
	}{{-1, 0, false}, {0, 0, true}, {1.5, 0, true}, {2, 0, false}, {3, 1, true}, {5, 0, false}, {8, 2, true}, {9, 2, true}, {10, 0, false}}
	for _, c := range cases {
		idx, ok := m.FindUnit(temporal.Instant(c.t))
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("FindUnit(%v) = %d, %v", c.t, idx, ok)
		}
	}
	u, ok := m.UnitAt(4)
	if !ok || u.V {
		t.Error("UnitAt(4) wrong")
	}
	if !m.Present(8) || m.Present(6) {
		t.Error("Present wrong")
	}
}

func TestDefTimeInitialFinal(t *testing.T) {
	m := Must(ub(rho(0, 2), true), ub(rho(2, 4), false), ub(iv(7, 9), true))
	dt := m.DefTime()
	// [0,2) and [2,4) merge in the period set.
	if dt.Len() != 2 {
		t.Fatalf("DefTime = %v", dt)
	}
	if !dt.Contains(3) || dt.Contains(5) {
		t.Error("DefTime membership wrong")
	}
	first, ok := m.InitialUnit()
	if !ok || first.Iv.Start != 0 {
		t.Error("InitialUnit wrong")
	}
	last, ok := m.FinalUnit()
	if !ok || last.Iv.End != 9 {
		t.Error("FinalUnit wrong")
	}
	var empty Mapping[units.UBool]
	if _, ok := empty.InitialUnit(); ok {
		t.Error("empty InitialUnit")
	}
	if !empty.IsEmpty() {
		t.Error("zero mapping not empty")
	}
}

func TestAtPeriods(t *testing.T) {
	m := Must(ub(rho(0, 10), true))
	p := temporal.MustPeriods(iv(2, 4), iv(6, 8))
	clipped := m.AtPeriods(p)
	if clipped.Len() != 2 {
		t.Fatalf("clipped = %v", clipped)
	}
	if clipped.Units()[0].Iv != iv(2, 4) || clipped.Units()[1].Iv != iv(6, 8) {
		t.Errorf("clip intervals = %v", clipped.Intervals())
	}
	// Clipping merges adjacent pieces with equal value back together.
	q := temporal.MustPeriods(iv(0, 3))
	clip2 := m.AtPeriods(q)
	if clip2.Len() != 1 || clip2.Units()[0].Iv != iv(0, 3) {
		t.Errorf("clip2 = %v", clip2)
	}
	// Empty periods → empty mapping.
	if !m.AtPeriods(temporal.Periods{}).IsEmpty() {
		t.Error("clip to empty periods not empty")
	}
}

func TestAtPeriodsProperty(t *testing.T) {
	m := Must(ub(rho(0, 4), true), ub(iv(6, 9), false))
	mk := func(raw []int8) temporal.Periods {
		var ivs []temporal.Interval
		for k := 0; k+1 < len(raw); k += 2 {
			s, e := raw[k], raw[k+1]
			if s > e {
				s, e = e, s
			}
			ivs = append(ivs, iv(float64(s), float64(e)))
		}
		return temporal.MustPeriods(ivs...)
	}
	f := func(raw []int8, probe int8) bool {
		p := mk(raw)
		clipped := m.AtPeriods(p)
		if clipped.Validate() != nil {
			return false
		}
		t0 := temporal.Instant(probe)
		wantPresent := m.Present(t0) && p.Contains(t0)
		u, ok := clipped.UnitAt(t0)
		if ok != wantPresent {
			return false
		}
		if ok {
			orig, _ := m.UnitAt(t0)
			return u.V == orig.V
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBuilderMerges(t *testing.T) {
	// [0,2) and [2,4) with equal value merge into [0,4); [5,6] after a
	// gap stays a unit of its own.
	var bld Builder[units.UBool]
	bld.Append(ub(rho(0, 2), true))
	bld.Append(ub(rho(2, 4), true))
	bld.Append(ub(iv(5, 6), false))
	m := bld.MustBuild()
	if m.Len() != 2 || m.Units()[0].Iv != rho(0, 4) || m.Units()[1].Iv != iv(5, 6) {
		t.Errorf("builder = %v", m)
	}
	// A degenerate unit merges with an equal neighbour on either side:
	// [0,1) then [1,1] is [0,1], then (1,3) is [0,3).
	var deg Builder[units.UBool]
	deg.Append(ub(rho(0, 1), true))
	deg.Append(ub(iv(1, 1), true))
	deg.Append(ub(temporal.Open(1, 3), true))
	m = deg.MustBuild()
	if m.Len() != 1 || m.Units()[0].Iv != rho(0, 3) {
		t.Errorf("degenerate merge = %v", m)
	}
	// Adjacent units with distinct values, and equal values across a
	// gap, stay apart.
	var apart Builder[units.UBool]
	apart.Append(ub(rho(0, 2), true))
	apart.Append(ub(rho(2, 3), false))
	apart.Append(ub(iv(4, 5), false))
	if m = apart.MustBuild(); m.Len() != 3 {
		t.Errorf("unmergeable units = %v", m)
	}
	// Merge is Builder's rule: it joins exactly the pairs above.
	if u, ok := Merge(ub(rho(0, 2), true), ub(rho(2, 4), true)); !ok || u.Iv != rho(0, 4) || !u.V {
		t.Errorf("Merge of adjacent equal units = %v, %v", u, ok)
	}
	if _, ok := Merge(ub(rho(0, 2), true), ub(rho(2, 4), false)); ok {
		t.Error("Merge joined distinct values")
	}
	if _, ok := Merge(ub(rho(0, 2), true), ub(iv(3, 4), true)); ok {
		t.Error("Merge joined across a gap")
	}
}

func TestBuilderRejectsDisorder(t *testing.T) {
	var bad Builder[units.UBool]
	bad.Append(ub(iv(5, 6), true))
	bad.Append(ub(iv(0, 1), true))
	if _, err := bad.Build(); err == nil {
		t.Error("out-of-order append accepted")
	}
	var overlap Builder[units.UBool]
	overlap.Append(ub(iv(0, 5), true))
	overlap.Append(ub(iv(3, 8), true))
	if _, err := overlap.Build(); err == nil {
		t.Error("overlapping append accepted")
	}
	// Two closed units that share an endpoint overlap there.
	var shared Builder[units.UBool]
	shared.Append(ub(iv(0, 2), true))
	shared.Append(ub(iv(2, 4), false))
	if _, err := shared.Build(); err == nil {
		t.Error("units sharing a closed endpoint accepted")
	}
}

func TestMappingWithURealUnits(t *testing.T) {
	// The generic machinery works for any unit type.
	u1 := units.NewUReal(rho(0, 5), 0, 1, 0, false)  // t
	u2 := units.NewUReal(rho(5, 10), 0, 0, 5, false) // constant 5
	m := Must(u1, u2)
	got, ok := m.UnitAt(7)
	if !ok || got.Eval(7) != 5 {
		t.Error("ureal mapping UnitAt wrong")
	}
	got, ok = m.UnitAt(3)
	if !ok || got.Eval(3) != 3 {
		t.Error("ureal mapping eval wrong")
	}
}
