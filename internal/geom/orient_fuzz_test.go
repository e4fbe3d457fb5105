package geom

import (
	"math"
	"math/rand"
	"testing"
)

// orientReference is Orient as it was before its Hypot-free fast path,
// kept verbatim: Orient must return what it returns, bit for bit, on
// every input.
func orientReference(a, b, c Point) int {
	d := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	// Scale-aware tolerance: the determinant has the dimension of an
	// area, so compare against Eps times a characteristic squared size.
	scale := max(1, b.Sub(a).Norm(), c.Sub(a).Norm())
	if math.Abs(d) <= Eps*scale*scale {
		return 0
	}
	if d > 0 {
		return 1
	}
	return -1
}

// checkOrient compares Orient with orientReference on the triple, on
// its rotations and its mirror, and on triples built from it that put
// the determinant right at the collinearity tolerance: a = 0,
// b = (s, 0), c = (x, y) with y stepped a few ulps either side of the
// value that makes s·y the tolerance Eps·scale², for s taken from the
// input at a few nearby sizes. There the fast path's bound and the
// tolerance round differently, and a bound that was not above the
// tolerance, or a test that admitted equality, would classify a
// determinant the full test calls collinear.
func checkOrient(t *testing.T, a, b, c Point) {
	for _, tr := range [][3]Point{{a, b, c}, {b, c, a}, {c, a, b}, {a, c, b}} {
		if got, want := Orient(tr[0], tr[1], tr[2]), orientReference(tr[0], tr[1], tr[2]); got != want {
			t.Fatalf("Orient(%v, %v, %v) = %d, reference %d", tr[0], tr[1], tr[2], got, want)
		}
	}
	s := math.Abs(b.X)
	if !(s >= 1 && s < 1e150) {
		s = 1 + math.Abs(math.Mod(b.X, 1)) // NaN stays NaN: checked as is above
	}
	x := math.Mod(c.X, s)
	for k := 0; k < 8; k++ {
		s := s * (1 + float64(k)/7)
		scale := max(1, s, math.Abs(x))
		y := Eps * scale * scale / s
		for i := 0; i < 4; i++ {
			y = math.Nextafter(y, 0)
		}
		for i := 0; i < 8; i++ {
			y = math.Nextafter(y, math.Inf(1))
			o, p, q := Pt(0, 0), Pt(s, 0), Pt(x, y)
			if got, want := Orient(o, p, q), orientReference(o, p, q); got != want {
				t.Fatalf("Orient(%v, %v, %v) = %d, reference %d (at the tolerance)", o, p, q, got, want)
			}
		}
	}
}

// FuzzOrientMatchesReference holds Orient to orientReference over
// arbitrary coordinates: near-collinear triples, huge and tiny
// magnitudes, subnormals, ±Inf and NaN, and the collinearity tolerance's
// edge, which checkOrient builds from every input.
func FuzzOrientMatchesReference(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	for _, s := range [][6]float64{
		{0, 0, 1, 1, 2, 2 + 1e-10},             // near-collinear
		{0, 0, 1, 0, 0, 1e-9},                  // at the tolerance
		{3, -7, 1e6, 1e6 + 1e-3, -2e6, -2e6},   // near-collinear, large
		{0, 0, 1e200, 0, 0, 1e200},             // determinant and tolerance both overflow
		{0, 0, 1e155, 1e155, 1e155, -1e155},    // the fast bound overflows, Hypot does not
		{1e-300, 0, 0, 1e-300, 1e-300, 1e-300}, // tiny
		{5e-324, 0, 0, 5e-324, 1e-323, 5e-324}, // subnormal
		{0, 0, inf, 1, 2, 3},                   // an infinite coordinate
		{0, 0, inf, inf, -inf, inf},            // infinite determinant terms
		{0, 0, nan, 1, 2, 3},                   // NaN
		{1.5, 2.25, 7, 11, 13.75, 17},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5])
	}
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy float64) {
		checkOrient(t, Pt(ax, ay), Pt(bx, by), Pt(cx, cy))
	})
}

// TestOrientMatchesReference runs the fuzz property over seeded random
// triples, so every plain test run covers more than the seed corpus:
// coordinates of random sign and exponent, and triples made collinear
// up to a few ulps.
func TestOrientMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	coord := func() float64 {
		return math.Ldexp(rng.Float64()*2-1, rng.Intn(80)-40)
	}
	for n := 0; n < 20000; n++ {
		a, b := Pt(coord(), coord()), Pt(coord(), coord())
		c := Pt(coord(), coord())
		if n%2 == 0 {
			k := rng.Float64()*4 - 2
			c = Pt(a.X+k*(b.X-a.X), a.Y+k*(b.Y-a.Y)*(1+(rng.Float64()-0.5)*1e-12))
		}
		checkOrient(t, a, b, c)
	}
}
