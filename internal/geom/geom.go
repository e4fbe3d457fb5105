// Package geom provides the two-dimensional geometric primitives that
// underlie the discrete spatial data types of the moving objects data
// model (Forlizzi, Güting, Nardelli, Schneider; SIGMOD 2000).
//
// It defines points with the lexicographic order assumed by the paper,
// line segments in canonical (left endpoint < right endpoint) form, the
// segment predicates used by the type definitions of Section 3.2.2
// (p-intersect, touch, meet, collinear, overlap), halfsegments with the
// ROSE-algebra sweep order used by the data structures of Section 4, and
// supporting machinery: exact-ish epsilon-based comparisons, bounding
// boxes and the plumbline point-in-polygon test used by the inside
// algorithm of Section 5.2.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used by all approximate floating point
// comparisons in this package. Coordinates whose difference is below Eps
// are considered equal. It is a variable so tests can tighten it, but
// callers should treat it as a constant.
var Eps = 1e-9

// ApproxEq reports whether a and b differ by less than Eps.
func ApproxEq(a, b float64) bool { return math.Abs(a-b) < Eps }

// ApproxZero reports whether a is within Eps of zero.
func ApproxZero(a float64) bool { return math.Abs(a) < Eps }

// Point is a point in the Euclidean plane. It corresponds to the
// carrier set Point = real × real of the paper; the undefined value of
// the point data type is represented one level up (see the spatial
// package) by a defined-flag, not by a sentinel coordinate.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Less reports whether p precedes q in the lexicographic order
// (x first, then y) that the paper fixes on points.
func (p Point) Less(q Point) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}

// Cmp returns -1, 0 or +1 according to the lexicographic order of p
// and q. The comparison is exact (bitwise on coordinates); use
// ApproxEqPoint for tolerant equality.
func (p Point) Cmp(q Point) int {
	switch {
	case p.X < q.X:
		return -1
	case p.X > q.X:
		return 1
	case p.Y < q.Y:
		return -1
	case p.Y > q.Y:
		return 1
	}
	return 0
}

// ApproxEqPoint reports whether p and q coincide up to Eps in both
// coordinates.
func ApproxEqPoint(p, q Point) bool {
	return ApproxEq(p.X, q.X) && ApproxEq(p.Y, q.Y)
}

// Add returns the vector sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p−q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product of p and q viewed
// as vectors, i.e. p.X*q.Y − p.Y*q.X.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// String formats the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Orient returns the orientation of the ordered triple (a, b, c):
// +1 if counter-clockwise, −1 if clockwise, 0 if (approximately)
// collinear. The collinearity tolerance scales with the magnitude of the
// involved coordinates so that large geometries behave like small ones.
//
// A determinant far from the tolerance is classified without the two
// Hypot calls the tolerance needs: |ux| + |uy| bounds the length of
// u = b − a from above, so Eps·2·max(1, (|ux| + |uy|)², (|vx| + |vy|)²)
// is never below the tolerance as computed — the factor 2 covers the
// rounding of Hypot, of the sums and of the products — and a
// determinant above it gets the sign the full test gives. A bound that
// is not finite (NaN, ±Inf, an overflow) compares false, and so does a
// NaN determinant: those, and determinants inside the band, take the
// full test, so the result is bit for bit the full test's.
func Orient(a, b, c Point) int {
	ux, uy := b.X-a.X, b.Y-a.Y
	vx, vy := c.X-a.X, c.Y-a.Y
	d := ux*vy - uy*vx
	su, sv := math.Abs(ux)+math.Abs(uy), math.Abs(vx)+math.Abs(vy)
	if math.Abs(d) > Eps*2*max(1, su*su, sv*sv) {
		if d > 0 {
			return 1
		}
		return -1
	}
	// Scale-aware tolerance: the determinant has the dimension of an
	// area, so compare against Eps times a characteristic squared size.
	scale := max(1, math.Hypot(ux, uy), math.Hypot(vx, vy))
	if math.Abs(d) <= Eps*scale*scale {
		return 0
	}
	if d > 0 {
		return 1
	}
	return -1
}
