// Fixture for the float-eq check: raw ==/!= on predeclared float64 or
// float32 is flagged, ordering comparisons and named float types are
// not, and allowlisted functions are exempt wholesale.
package floateq

type Instant float64

type point struct{ X, Y float64 }

func equal(a, b float64) bool {
	return a == b // want `raw float64 == comparison`
}

func sentinel(a float64) bool {
	if a != 0 { // want `raw float64 != comparison`
		return true
	}
	return a < 1 // ordering is not equality: not flagged
}

func mixed(a float64, n int) bool {
	return float64(n) == a // want `raw float64 == comparison`
}

func single(a, b float32) bool {
	return a == b // want `raw float64 == comparison`
}

func namedExempt(t, u Instant) bool {
	return t == u // named float types carry exact-endpoint semantics
}

func structExempt(p, q point) bool {
	return p == q // struct identity is representation equality
}

func constFolded() bool {
	const eps = 1e-9
	return eps == 1e-9 // compile-time constant: exact by definition
}

// allowed is in the fixture's FloatEqAllow set.
func allowed(a, b float64) bool {
	return a == b
}

type key struct{ v float64 }

// Cmp is allowlisted as a method ("key.Cmp").
func (k key) Cmp(o key) int {
	if k.v != o.v {
		if k.v < o.v {
			return -1
		}
		return 1
	}
	return 0
}

// The three kernel shapes a mutation sweep planted — units.meetTimes'
// agreement of two root times, MSeg.Coplanar's zero cross product and
// geom's parallel-segment test — with the tolerant helper replaced by
// the raw operator. No test fails on the first or the last; this check
// fails on all three.
func meetTimes(xs, ys []float64, nx, ny int) bool {
	return nx > 0 && ny > 0 && xs[0] == ys[0] // want `raw float64 == comparison`
}

func (p point) cross(q point) float64 { return p.X*q.Y - p.Y*q.X }

func coplanar(d0, d1 point) bool {
	return d0.cross(d1) == 0 // want `raw float64 == comparison`
}

func parallel(d1, d2 point) bool {
	den := d1.cross(d2)
	if den == 0 { // want `raw float64 == comparison`
		return true
	}
	return false
}
