package units

import (
	"math"
	"testing"
	"testing/quick"

	"movingdb/internal/temporal"
)

func iv(s, e float64) temporal.Interval {
	return temporal.Closed(temporal.Instant(s), temporal.Instant(e))
}

func TestQuadRoots(t *testing.T) {
	r, n, all := QuadRoots(1, -3, 2) // (t-1)(t-2)
	if all || n != 2 || r[0] != 1 || r[1] != 2 {
		t.Errorf("roots = %v, all = %v", r[:n], all)
	}
	r, n, all = QuadRoots(0, 2, -4) // linear
	if all || n != 1 || r[0] != 2 {
		t.Errorf("linear roots = %v", r[:n])
	}
	r, n, all = QuadRoots(0, 0, 5) // no roots
	if all || n != 0 {
		t.Errorf("constant roots = %v", r[:n])
	}
	_, _, all = QuadRoots(0, 0, 0)
	if !all {
		t.Error("zero polynomial should report all")
	}
	r, n, _ = QuadRoots(1, 0, 1) // no real roots
	if n != 0 {
		t.Errorf("complex roots = %v", r[:n])
	}
	r, n, _ = QuadRoots(1, -2, 1) // double root at 1
	if n != 1 || r[0] != 1 {
		t.Errorf("double root = %v", r[:n])
	}
}

func TestQuadRootsProperty(t *testing.T) {
	f := func(a, b, c int8) bool {
		fa, fb, fc := float64(a), float64(b), float64(c)
		roots, n, all := QuadRoots(fa, fb, fc)
		if all {
			return fa == 0 && fb == 0 && fc == 0
		}
		for _, r := range roots[:n] {
			if v := fa*r*r + fb*r + fc; math.Abs(v) > 1e-6*max(1, math.Abs(r*r)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestURealEval(t *testing.T) {
	u := NewUReal(iv(0, 10), 1, -2, 3, false) // t²−2t+3
	if got := u.Eval(0); got != 3 {
		t.Errorf("Eval(0) = %v", got)
	}
	if got := u.Eval(2); got != 3 {
		t.Errorf("Eval(2) = %v", got)
	}
	root := NewUReal(iv(0, 10), 0, 0, 16, true) // √16
	if got := root.Eval(5); got != 4 {
		t.Errorf("root Eval = %v", got)
	}
}

func TestURealMinMax(t *testing.T) {
	u := NewUReal(iv(0, 10), 1, -4, 7, false) // vertex at t=2, value 3
	mn, at := u.Min()
	if mn != 3 || at != 2 {
		t.Errorf("Min = %v at %v", mn, at)
	}
	mx, atx := u.Max()
	if mx != u.Eval(10) || atx != 10 {
		t.Errorf("Max = %v at %v", mx, atx)
	}
	// Vertex outside the interval: extremes at bounds.
	v := u.WithInterval(iv(5, 10))
	mn, at = v.Min()
	if mn != v.Eval(5) || at != 5 {
		t.Errorf("clipped Min = %v at %v", mn, at)
	}
	// Downward parabola.
	w := NewUReal(iv(0, 4), -1, 4, 0, false) // vertex t=2 value 4
	mx, atx = w.Max()
	if mx != 4 || atx != 2 {
		t.Errorf("down Max = %v at %v", mx, atx)
	}
	// At t = −1e200, t² and 1e300·t overflow with opposite signs: the
	// start evaluates to NaN, is passed over, and the end decides.
	big := NewUReal(iv(-1e200, 0), 1, 1e300, 7, false)
	for name, ext := range map[string]func() (float64, temporal.Instant){"Min": big.Min, "Max": big.Max} {
		if v, at := ext(); v != 7 || at != 0 {
			t.Errorf("%s of t² + 1e300·t + 7 over [-1e200, 0] = %v at %v; want 7 at 0", name, v, at)
		}
	}
}

func TestURealTimesAt(t *testing.T) {
	u := NewUReal(iv(0, 10), 1, -3, 2, false)
	ts, all := u.TimesAt(0)
	if all || len(ts) != 2 || ts[0] != 1 || ts[1] != 2 {
		t.Errorf("TimesAt(0) = %v", ts)
	}
	// Out-of-interval roots are filtered.
	v := u.WithInterval(iv(1.5, 10))
	ts, _ = v.TimesAt(0)
	if len(ts) != 1 || ts[0] != 2 {
		t.Errorf("clipped TimesAt = %v", ts)
	}
	// Root unit: distance 5 at the roots of quad = 25.
	r := NewUReal(iv(0, 10), 0, 5, 0, true) // √(5t)
	ts, _ = r.TimesAt(5)
	if len(ts) != 1 || ts[0] != 5 {
		t.Errorf("root TimesAt = %v", ts)
	}
	if ts, _ := r.TimesAt(-1); len(ts) != 0 {
		t.Errorf("negative target on root unit = %v", ts)
	}
	// Identically constant.
	c := ConstUReal(iv(0, 1), 7)
	if _, all := c.TimesAt(7); !all {
		t.Error("constant function: all should be true")
	}
}

func TestURealCmpIntervals(t *testing.T) {
	// t²−3t+2 vs 0 on [0,3]: positive on [0,1), zero at 1, negative on
	// (1,2), zero at 2, positive on (2,3].
	u := NewUReal(iv(0, 3), 1, -3, 2, false)
	less, equal, greater := u.CmpIntervals(0)
	sum := func(ivs []temporal.Interval) float64 {
		var d float64
		for _, i := range ivs {
			d += i.Duration()
		}
		return d
	}
	if sum(less) != 1 || sum(greater) != 2 {
		t.Errorf("durations: less=%v greater=%v", sum(less), sum(greater))
	}
	if len(equal) != 2 || !equal[0].IsDegenerate() || !equal[1].IsDegenerate() {
		t.Errorf("equal pieces = %v", equal)
	}
	// Membership spot checks.
	probe := func(ivs []temporal.Interval, t0 temporal.Instant) bool {
		for _, i := range ivs {
			if i.Contains(t0) {
				return true
			}
		}
		return false
	}
	if !probe(greater, 0) || !probe(less, 1.5) || !probe(equal, 1) || !probe(equal, 2) || !probe(greater, 3) {
		t.Error("piece memberships wrong")
	}
}

func TestURealCmpIntervalsProperty(t *testing.T) {
	f := func(a, b, c int8, lo, hi int8, probeNum uint8) bool {
		l, h := float64(lo), float64(hi)
		if l > h {
			l, h = h, l
		}
		u := NewUReal(iv(l, h), float64(a), float64(b), float64(c), false)
		less, equal, greater := u.CmpIntervals(0)
		// probe inside [l, h]
		t0 := temporal.Instant(l + (h-l)*float64(probeNum)/255)
		val := u.Eval(t0)
		in := func(ivs []temporal.Interval) bool {
			for _, i := range ivs {
				if i.Contains(t0) {
					return true
				}
			}
			return false
		}
		inL, inE, inG := in(less), in(equal), in(greater)
		count := 0
		for _, x := range []bool{inL, inE, inG} {
			if x {
				count++
			}
		}
		if count != 1 {
			return false
		}
		switch {
		case val < 0:
			return inL
		case val > 0:
			return inG
		default:
			return inE
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestURealArith(t *testing.T) {
	u := NewUReal(iv(0, 1), 1, 2, 3, false)
	neg, ok := u.Neg()
	if !ok || neg.Eval(0.5)+u.Eval(0.5) != 0 {
		t.Error("Neg wrong")
	}
}

func TestURealEqualFunc(t *testing.T) {
	u := NewUReal(iv(0, 1), 1, 2, 3, false)
	if !u.EqualFunc(u.WithInterval(iv(5, 6))) {
		t.Error("EqualFunc must ignore intervals")
	}
	if u.EqualFunc(NewUReal(iv(0, 1), 1, 2, 3, true)) {
		t.Error("EqualFunc must distinguish root flag")
	}
}

func TestURealArithPointwiseProperty(t *testing.T) {
	f := func(a, b, c int8, frac uint8) bool {
		u := NewUReal(iv(0, 10), float64(a), float64(b), float64(c), false)
		t0 := temporal.Instant(10 * float64(frac) / 255)
		neg, ok := u.Neg()
		return ok && neg.Eval(t0) == -u.Eval(t0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestURealValueRangeProperty(t *testing.T) {
	// Every sampled value lies within ValueRange; the bounds are
	// attained when closed.
	f := func(a, b, c int8, frac uint8) bool {
		u := NewUReal(iv(0, 10), float64(a), float64(b), float64(c), false)
		lo, hi, _, _ := u.ValueRange()
		t0 := temporal.Instant(10 * float64(frac) / 255)
		v := u.Eval(t0)
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
