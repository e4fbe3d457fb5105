package baseline

import (
	"math"
	"math/big"
	"testing"

	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// exactCandidate is one candidate of exactRange: a value (nil when the
// candidate is an infinite limit, of sign inf), and whether an instant of
// the interval takes it.
type exactCandidate struct {
	v        *big.Rat
	inf      int
	attained bool
}

// exactRange lists the candidates for the bounds of the set of values
// a·t² + b·t + c takes over the interval from lo to hi (nil for an
// infinite end, lc and rc its closure), or its square root clamped at 0
// when root, in exact rationals and in the radicand's domain: each
// finite end, attained iff closed; each infinite end's limit, never
// attained; the vertex −b/2a when it lies strictly inside, attained. A
// constant on a non-degenerate interval attains its value everywhere. A
// root candidate whose radicand is negative reads 0 and is attained: the
// radicand stays negative on a stretch of the interval beside it. It
// shares no code with units. The infimum (supremum) over the closure of
// the interval, which Min (Max) reports, is the least (greatest)
// candidate.
func exactRange(a, b, c int64, lo, hi *big.Rat, lc, rc, root bool) []exactCandidate {
	eval := func(t *big.Rat) *big.Rat {
		r := new(big.Rat).Mul(big.NewRat(a, 1), t)
		r.Add(r, big.NewRat(b, 1))
		r.Mul(r, t)
		return r.Add(r, big.NewRat(c, 1))
	}
	constant := a == 0 && b == 0 && (lo == nil || hi == nil || lo.Cmp(hi) != 0)
	var out []exactCandidate
	add := func(x exactCandidate) {
		if root && (x.inf < 0 || x.v != nil && x.v.Sign() < 0) {
			x = exactCandidate{v: new(big.Rat), attained: true}
		}
		x.attained = x.attained || constant
		out = append(out, x)
	}
	for _, end := range []struct {
		t      *big.Rat
		side   int
		closed bool
	}{{lo, -1, lc}, {hi, 1, rc}} {
		switch {
		case end.t != nil:
			add(exactCandidate{v: eval(end.t), attained: end.closed})
		case a != 0:
			add(exactCandidate{inf: sign(a)})
		case b != 0:
			add(exactCandidate{inf: sign(b) * end.side})
		default:
			add(exactCandidate{v: big.NewRat(c, 1)})
		}
	}
	if a != 0 {
		x := big.NewRat(-b, 2*a)
		if (lo == nil || lo.Cmp(x) < 0) && (hi == nil || x.Cmp(hi) < 0) {
			add(exactCandidate{v: eval(x), attained: true})
		}
	}
	return out
}

// cmpCandidate orders two candidates, infinities included.
func cmpCandidate(x, y exactCandidate) int {
	switch {
	case x.inf != 0 || y.inf != 0:
		return cmpInt(x.inf, y.inf)
	}
	return x.v.Cmp(y.v)
}

func cmpInt(x, y int) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

func sign(x int64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// FuzzURealExtremum holds UReal.Min and Max, and UReal.ValueRange's
// bounds and closure flags, to exactRange over small integer
// coefficients and ends, open, degenerate and unbounded intervals
// included, and root units through the monotone square root. An infinite
// bound must be reported as that infinity, open, and MReal answers ⊥ for
// it; a finite one within rounding of the exact value. A closure flag is
// whether a candidate equal to the bound is attained; only the vertex is
// evaluated inexactly, so the flag is checked unless some candidate lies
// within rounding of the bound without equalling it.
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
	f.Add(int16(0), int16(0), int16(5), int16(0), int16(1), uint8(0x00))    // constant 5 over (0, 1): attained, [5, 5]
	f.Add(int16(-1), int16(0), int16(1), int16(0), int16(2), uint8(0x10))   // √(1 − t²) over (0, 2): 0 attained near 2, 1 not
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
		at := max(math.Abs(float64(s)), math.Abs(float64(e)), math.Abs(float64(b)))
		scale := math.Abs(float64(a))*at*at + math.Abs(float64(b))*at + math.Abs(float64(c)) + 1
		cands := exactRange(int64(a), int64(b), int64(c), lo, hi, iv.LC, iv.RC, root)
		vlo, vhi, vlc, vrc := u.ValueRange()
		for _, greatest := range []bool{true, false} {
			want, ext, mv := -1, 0.0, moving.MReal.Min
			bound, closed := vlo, vlc
			if greatest {
				want, mv = 1, moving.MReal.Max
				bound, closed = vhi, vrc
				ext, _ = u.Max()
			} else {
				ext, _ = u.Min()
			}
			best := cands[0]
			for _, x := range cands[1:] {
				if cmpCandidate(x, best) == want {
					best = x
				}
			}
			_, _, ok := mv(r)
			if best.inf != 0 {
				if !math.IsInf(ext, best.inf) || ok {
					t.Fatalf("%v greatest=%v: %v (MReal ok %v), want %+d·∞, ⊥", u, greatest, ext, ok, best.inf)
				}
				if !math.IsInf(bound, best.inf) || closed {
					t.Fatalf("%v: ValueRange greatest=%v is %v closed=%v, want %+d·∞ open", u, greatest, bound, closed, best.inf)
				}
				continue
			}
			// Compare in the radicand's domain: near 0 the square root
			// would magnify the vertex's rounding.
			w, _ := best.v.Float64()
			off := func(got float64) bool {
				if root {
					got *= got
				}
				return math.IsInf(got, 0) || math.Abs(got-w) > 1e-12*scale
			}
			if !ok || off(ext) {
				t.Fatalf("%v greatest=%v: %v (MReal ok %v), want %v", u, greatest, ext, ok, best.v.RatString())
			}
			if off(bound) {
				t.Fatalf("%v: ValueRange greatest=%v is %v, want %v", u, greatest, bound, best.v.RatString())
			}
			attained, near := false, false
			for _, x := range cands {
				switch {
				case x.inf != 0:
				case x.v.Cmp(best.v) == 0:
					attained = attained || x.attained
				default:
					d, _ := new(big.Rat).Sub(x.v, best.v).Float64()
					near = near || math.Abs(d) <= 1e-12*scale
				}
			}
			if !near && closed != attained {
				t.Fatalf("%v: ValueRange greatest=%v is %v closed=%v, want closed=%v", u, greatest, bound, closed, attained)
			}
		}
	})
}
