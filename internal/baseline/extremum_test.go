package baseline

import (
	"math"
	"math/big"
	"testing"

	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// exactBound is the supremum (greatest set) or infimum of
// a·t² + b·t + c over the closure of the interval from lo to hi, in
// exact rationals; a nil lo is −∞ and a nil hi +∞. inf is +1 or −1 when
// the bound is +∞ or −∞, and v is nil then. It shares no code with
// units: the candidates are the finite ends, the vertex −b/2a when it
// lies strictly inside, and at an infinite end either that the function
// runs off towards the bound sought, or its constant value.
func exactBound(a, b, c int64, lo, hi *big.Rat, greatest bool) (v *big.Rat, inf int) {
	want := -1
	if greatest {
		want = 1
	}
	// runsOff: at the infinite end of sign side, the polynomial tends to
	// the infinity of sign want.
	runsOff := func(side int) bool {
		switch {
		case a != 0:
			return sign(a) == want
		case b != 0:
			return sign(b)*side == want
		}
		return false
	}
	eval := func(t *big.Rat) *big.Rat {
		r := new(big.Rat).Mul(big.NewRat(a, 1), t)
		r.Add(r, big.NewRat(b, 1))
		r.Mul(r, t)
		return r.Add(r, big.NewRat(c, 1))
	}
	var best *big.Rat
	consider := func(x *big.Rat) {
		if best == nil || x.Cmp(best) == want {
			best = x
		}
	}
	for _, end := range []struct {
		t    *big.Rat
		side int
	}{{lo, -1}, {hi, 1}} {
		switch {
		case end.t != nil:
			consider(eval(end.t))
		case runsOff(end.side):
			return nil, want
		case a == 0 && b == 0:
			consider(big.NewRat(c, 1))
		}
	}
	if a != 0 {
		x := big.NewRat(-b, 2*a)
		if (lo == nil || lo.Cmp(x) < 0) && (hi == nil || x.Cmp(hi) < 0) {
			consider(eval(x))
		}
	}
	return best, 0
}

func sign(x int64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// FuzzURealExtremum holds UReal.Min and Max to exactBound over small
// integer coefficients and ends, open, degenerate and unbounded intervals
// included, and root units through the monotone square root. An infinite
// bound must be reported as that infinity, and MReal answers ⊥ for it; a
// finite one within rounding of the exact value.
//
// flags: bit 0 the start is −∞, bit 1 the end is +∞, bit 2 left-closed,
// bit 3 right-closed, bit 4 a root unit.
func FuzzURealExtremum(f *testing.F) {
	f.Add(int16(0), int16(0), int16(1600), int16(0), int16(0), uint8(0x03)) // 1600 over (−∞, +∞): 1600 both ways
	f.Add(int16(-1), int16(0), int16(5), int16(0), int16(0), uint8(0x06))   // −t² + 5 over [0, +∞): max 5, min ⊥
	f.Add(int16(1), int16(-4), int16(7), int16(3), int16(3), uint8(0x0c))   // degenerate [3, 3]
	f.Add(int16(1), int16(-4), int16(7), int16(0), int16(10), uint8(0x00))  // open (0, 10), vertex at 2
	f.Add(int16(-3), int16(1), int16(0), int16(-5), int16(5), uint8(0x1c))  // root of a quadratic negative at the ends
	f.Add(int16(0), int16(2), int16(-1), int16(-8), int16(0), uint8(0x01))  // linear over (−∞, 0)
	f.Add(int16(3), int16(-1), int16(2), int16(0), int16(1), uint8(0x0c))   // vertex 1/6, not a binary fraction
	f.Fuzz(func(t *testing.T, a, b, c, s, e int16, flags uint8) {
		if s > e {
			s, e = e, s
		}
		start, end := temporal.Instant(s), temporal.Instant(e)
		var lo, hi *big.Rat = big.NewRat(int64(s), 1), big.NewRat(int64(e), 1)
		if flags&0x01 != 0 {
			start, lo = temporal.NegInf, nil
		}
		if flags&0x02 != 0 {
			end, hi = temporal.PosInf, nil
		}
		iv, err := temporal.NewInterval(start, end, flags&0x04 != 0, flags&0x08 != 0)
		if err != nil {
			t.Skip()
		}
		root := flags&0x10 != 0
		u := units.NewUReal(iv, float64(a), float64(b), float64(c), root)
		r := moving.MustMReal(u)
		for _, greatest := range []bool{true, false} {
			got, _ := u.Min()
			mv := moving.MReal.Min
			if greatest {
				got, _ = u.Max()
				mv = moving.MReal.Max
			}
			want, inf := exactBound(int64(a), int64(b), int64(c), lo, hi, greatest)
			if root && inf < 0 {
				want, inf = new(big.Rat), 0 // √ reads a negative radicand as 0
			}
			_, _, ok := mv(r)
			if inf != 0 {
				if !math.IsInf(got, inf) || ok {
					t.Fatalf("%v greatest=%v: %v (MReal ok %v), want %+d·∞, ⊥", u, greatest, got, ok, inf)
				}
				continue
			}
			// Compare in the radicand's domain: near 0 the square root
			// would magnify the vertex's rounding.
			w, _ := want.Float64()
			g := got
			if root {
				w, g = max(w, 0), got*got
			}
			at := max(math.Abs(float64(s)), math.Abs(float64(e)), math.Abs(float64(b)))
			scale := math.Abs(float64(a))*at*at + math.Abs(float64(b))*at + math.Abs(float64(c)) + 1
			if !ok || math.IsInf(got, 0) || math.Abs(g-w) > 1e-12*scale {
				t.Fatalf("%v greatest=%v: %v (MReal ok %v), want %v", u, greatest, got, ok, want.RatString())
			}
		}
	})
}
