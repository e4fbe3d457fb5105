package geom

import "fmt"

// Rect is an axis-aligned rectangle used as a 2D bounding box. The zero
// value is not a valid rectangle; use EmptyRect to start accumulating.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns the identity element for Union: a rectangle that
// contains nothing and disappears when united with any real rectangle.
func EmptyRect() Rect {
	const inf = 1e308
	return Rect{MinX: inf, MinY: inf, MaxX: -inf, MaxY: -inf}
}

// IsEmpty reports whether r is empty (contains no point).
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: min(r.MinX, s.MinX), MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX), MaxY: max(r.MaxY, s.MaxY),
	}
}

// ExtendPoint returns the smallest rectangle containing r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// ContainsPoint reports whether p lies in r (boundary included).
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// String formats the rectangle as "[minx,miny..maxx,maxy]".
func (r Rect) String() string {
	if r.IsEmpty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%g,%g..%g,%g]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// Cube is an axis-aligned box in (x, y, t) space: the 3D bounding cube
// stored with spatial unit types (Section 4.2).
type Cube struct {
	Rect       Rect
	MinT, MaxT float64
}

// EmptyCube returns the identity element for Cube.Union.
func EmptyCube() Cube {
	const inf = 1e308
	return Cube{Rect: EmptyRect(), MinT: inf, MaxT: -inf}
}

// IsEmpty reports whether c contains no point.
func (c Cube) IsEmpty() bool { return c.Rect.IsEmpty() || c.MinT > c.MaxT }

// Union returns the smallest cube containing both c and d.
func (c Cube) Union(d Cube) Cube {
	if c.IsEmpty() {
		return d
	}
	if d.IsEmpty() {
		return c
	}
	return Cube{
		Rect: c.Rect.Union(d.Rect),
		MinT: min(c.MinT, d.MinT),
		MaxT: max(c.MaxT, d.MaxT),
	}
}

// Intersects reports whether c and d share at least one point.
func (c Cube) Intersects(d Cube) bool {
	if c.IsEmpty() || d.IsEmpty() {
		return false
	}
	return c.Rect.Intersects(d.Rect) && c.MinT <= d.MaxT && d.MinT <= c.MaxT
}
