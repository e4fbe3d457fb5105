package base

import (
	"slices"
	"testing"
	"testing/quick"

	"movingdb/internal/temporal"
)

func TestValueUndef(t *testing.T) {
	u := Undef[int64]()
	if u.Defined() {
		t.Error("Undef is defined")
	}
	if _, ok := u.Get(); ok {
		t.Error("Get on undef succeeded")
	}
	if u.String() != "undef" {
		t.Errorf("String = %q", u.String())
	}
	d := Def[int64](42)
	if !d.Defined() || d.MustGet() != 42 {
		t.Error("Def roundtrip failed")
	}
	if d.Equal(u) || !d.Equal(Def[int64](42)) {
		t.Error("Equal wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustGet on undef did not panic")
		}
	}()
	u.MustGet()
}

func TestValueKinds(t *testing.T) {
	if Def("abc").String() != "abc" {
		t.Error("StringVal format")
	}
	if Def(true).String() != "true" {
		t.Error("BoolVal format")
	}
	if Def(3.5).String() != "3.5" {
		t.Error("RealVal format")
	}
}

// range(real) is the range constructor of Section 3.2.3 applied to the
// base type real. Its code is package temporal's, shared with
// range(instant); these tests hold it to the paper over the reals.

type (
	realInterval = temporal.IntervalOf[float64]
	realRange    = temporal.RangeOf[float64]
)

func closedReal(s, e float64) realInterval {
	return realInterval{Start: s, End: e, LC: true, RC: true}
}

func TestIntervalValidation(t *testing.T) {
	if (realInterval{Start: 5, End: 2, LC: true, RC: true}).Validate() == nil {
		t.Error("reversed interval accepted")
	}
	if (realInterval{Start: 2, End: 2, RC: true}).Validate() == nil {
		t.Error("half-open degenerate accepted")
	}
	iv := closedReal(1, 5)
	if !iv.Contains(1) || !iv.Contains(5) || iv.Contains(0) || iv.Contains(6) {
		t.Error("Contains wrong")
	}
	half := realInterval{Start: 1, End: 5, RC: true}
	if half.Contains(1) || !half.Contains(5) {
		t.Error("closure flags ignored")
	}
}

func TestRangeCanonicalDense(t *testing.T) {
	r, err := temporal.NewRange(
		realInterval{Start: 0, End: 2, LC: true},
		closedReal(2, 4),
		closedReal(6, 7),
	)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("canonical = %v", r)
	}
	if r.Intervals()[0] != closedReal(0, 4) {
		t.Errorf("merged = %v", r.Intervals()[0])
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestRangeContains(t *testing.T) {
	r, _ := temporal.NewRange(realInterval{Start: 0, End: 2, LC: true}, closedReal(5, 7))
	cases := []struct {
		v    float64
		want bool
	}{{-1, false}, {0, true}, {1.5, true}, {2, false}, {3, false}, {5, true}, {7, true}, {8, false}}
	for _, c := range cases {
		if got := r.Contains(c.v); got != c.want {
			t.Errorf("Contains(%v) = %v", c.v, got)
		}
	}
	if mn, ok := r.Min(); !ok || mn != 0 {
		t.Error("Min wrong")
	}
	if mx, ok := r.Max(); !ok || mx != 7 {
		t.Error("Max wrong")
	}
}

func TestRangeSetOps(t *testing.T) {
	r, _ := temporal.NewRange(closedReal(0, 4))
	s, _ := temporal.NewRange(closedReal(2, 6), closedReal(8, 9))
	u := r.Union(s)
	if u.Len() != 2 || u.Intervals()[0] != closedReal(0, 6) {
		t.Errorf("union = %v", u)
	}
	i := r.Intersect(s)
	if i.Len() != 1 || i.Intervals()[0] != closedReal(2, 4) {
		t.Errorf("intersect = %v", i)
	}
	// Open/closed boundary handling in intersection.
	a, _ := temporal.NewRange(realInterval{Start: 0, End: 2, LC: true})
	b, _ := temporal.NewRange(closedReal(2, 3))
	if !a.Intersect(b).IsEmpty() {
		t.Errorf("[0,2) ∩ [2,3] = %v", a.Intersect(b))
	}
}

func TestRangeEqualCanonical(t *testing.T) {
	r1, _ := temporal.NewRange(realInterval{Start: 0, End: 1, LC: true}, closedReal(1, 2))
	r2, _ := temporal.NewRange(closedReal(0, 2))
	if !r1.Equal(r2) {
		t.Errorf("canonical forms differ: %v vs %v", r1, r2)
	}
}

func TestRangeSetOpsProperty(t *testing.T) {
	// Closed intervals from random endpoint pairs; the expected membership
	// is read off the generated pairs, not off the ranges under test, at
	// every endpoint and every midpoint between consecutive endpoints.
	pairs := func(raw []int8) [][2]float64 {
		var out [][2]float64
		for k := 0; k+1 < len(raw); k += 2 {
			out = append(out, [2]float64{float64(min(raw[k], raw[k+1])), float64(max(raw[k], raw[k+1]))})
		}
		return out
	}
	mk := func(ps [][2]float64) realRange {
		ivs := make([]realInterval, len(ps))
		for k, p := range ps {
			ivs[k] = closedReal(p[0], p[1])
		}
		r, err := temporal.NewRange(ivs...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	in := func(ps [][2]float64, v float64) bool {
		return slices.ContainsFunc(ps, func(p [2]float64) bool { return p[0] <= v && v <= p[1] })
	}
	f := func(raw1, raw2 []int8) bool {
		ps, qs := pairs(raw1), pairs(raw2)
		r, s := mk(ps), mk(qs)
		u, i := r.Union(s), r.Intersect(s)
		if u.Validate() != nil || i.Validate() != nil {
			return false
		}
		ends := []float64{-200, 200}
		for _, p := range append(ps, qs...) {
			ends = append(ends, p[0], p[1])
		}
		slices.Sort(ends)
		probes := slices.Clone(ends)
		for k := 1; k < len(ends); k++ {
			probes = append(probes, (ends[k-1]+ends[k])/2)
		}
		for _, v := range probes {
			inR, inS := in(ps, v), in(qs, v)
			if u.Contains(v) != (inR || inS) || i.Contains(v) != (inR && inS) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestIntime(t *testing.T) {
	p := Intime[float64]{Inst: 3, Val: 1.5}
	if p.String() != "(3, 1.5)" {
		t.Errorf("String = %q", p.String())
	}
}
