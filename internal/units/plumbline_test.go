package units

import (
	"math/rand"
	"slices"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
)

// pointInRegionAtCursor is the plumbline pointInRegionAt ran before it
// walked the rings itself: one MSegCursor pass, each moving segment
// evaluating both of its vertices.
func pointInRegionAtCursor(p MPoint, ur URegion, t temporal.Instant) bool {
	pt := p.Eval(t)
	inside := false
	it := ur.MSegs()
	for g, more := it.Next(); more; g, more = it.Next() {
		s, ok := g.EvalSeg(t)
		if !ok {
			continue
		}
		on, crosses := geom.PlumbStep(pt, s)
		if on {
			return true
		}
		if crosses {
			inside = !inside
		}
	}
	return inside
}

// sometimesInsideCursor is UPointSometimesInsideURegion as it was before
// its stab loop walked the rings itself: the same steps over one
// MSegCursor pass, and the cursor-form plumbline.
func sometimesInsideCursor(up UPoint, ur URegion) bool {
	iv, ok := up.Iv.Intersect(ur.Iv)
	if !ok || !up.Cube().Intersects(ur.Cube()) {
		return false
	}
	if iv.IsDegenerate() {
		return pointInRegionAtCursor(up.M, ur, iv.Start)
	}
	it := ur.MSegs()
	for g, more := it.Next(); more; g, more = it.Next() {
		stabs, n := stabTimes(up.M, g, iv)
		for _, s := range stabs[:n] {
			if s.t > float64(iv.Start) {
				return true
			}
		}
	}
	return pointInRegionAtCursor(up.M, ur, temporal.Instant((float64(iv.Start)+float64(iv.End))/2))
}

// insideCursor is UPointInsideURegion as it was before its stab loop
// walked the rings itself: the stabs collected over one MSegCursor pass,
// then the same ordering, merging and assembly.
func insideCursor(dst []UBool, up UPoint, ur URegion) []UBool {
	iv, ok := up.Iv.Intersect(ur.Iv)
	if !ok {
		return dst
	}
	if !up.Cube().Intersects(ur.Cube()) {
		return append(dst, UBool{Iv: iv, V: false})
	}
	var crossings []stab
	it := ur.MSegs()
	for g, more := it.Next(); more; g, more = it.Next() {
		stabs, n := stabTimes(up.M, g, iv)
		crossings = append(crossings, stabs[:n]...)
	}
	return insideFromStabs(dst, up.M, ur, iv, crossings)
}

// TestPointInRegionAtMatchesCursorWalk holds the ring walks — the
// plumbline, the sometimes-inside stab loop and the inside kernel's stab
// loop — to the cursor forms they replaced, answer for answer (the
// kernel's boolean units bit for bit), on unvalidated units of the
// integer grid: one to three faces of zero to two holes, rings of one to
// six vertices with repeats (so segments that are degenerate at every
// instant, or only at some), probed at integer and half instants from
// grid points and from the evaluated vertices and edge midpoints, where
// the point lies on the boundary and the early "on" return decides.
func TestPointInRegionAtMatchesCursorWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	motion := func() MPoint {
		return MPoint{X0: float64(rng.Intn(9) - 4), X1: float64(rng.Intn(3) - 1), Y0: float64(rng.Intn(9) - 4), Y1: float64(rng.Intn(3) - 1)}
	}
	ring := func() MCycle {
		c := make(MCycle, 1+rng.Intn(6))
		for k := range c {
			if k > 0 && rng.Intn(5) == 0 {
				c[k] = c[k-1]
			} else {
				c[k] = motion()
			}
		}
		return c
	}
	for n := 0; n < 10000; n++ {
		ur := URegion{Iv: temporal.Closed(-4, 4)}
		for f := 1 + rng.Intn(3); f > 0; f-- {
			face := MFace{Outer: ring()}
			for h := rng.Intn(3); h > 0; h-- {
				face.Holes = append(face.Holes, ring())
			}
			ur.Faces = append(ur.Faces, face)
		}
		at := temporal.Instant(float64(rng.Intn(17)-8) / 2)
		probes := []MPoint{motion(), StaticMPoint(geom.Pt(float64(rng.Intn(9)-4), float64(rng.Intn(9)-4)))}
		it := ur.MSegs()
		for g, more := it.Next(); more; g, more = it.Next() {
			s, e := g.Eval(at)
			probes = append(probes, StaticMPoint(s), StaticMPoint(geom.Pt((s.X+e.X)/2, (s.Y+e.Y)/2)))
		}
		for _, p := range probes {
			if got, want := pointInRegionAt(p, ur, at), pointInRegionAtCursor(p, ur, at); got != want {
				t.Fatalf("case %d: point %v at %v in %+v: ring walk %v, cursor walk %v", n, p.Eval(at), at, ur.Faces, got, want)
			}
		}
		up := UPoint{Iv: decodeInterval(byte(rng.Intn(9)-4), byte(rng.Intn(64))), M: probes[0]}
		if got, want := UPointSometimesInsideURegion(up, ur), sometimesInsideCursor(up, ur); got != want {
			t.Fatalf("case %d: %v in %+v: ring walk %v, cursor walk %v", n, up, ur.Faces, got, want)
		}
		if got, want := UPointInsideURegion(nil, up, ur), insideCursor(nil, up, ur); !slices.Equal(got, want) {
			t.Fatalf("case %d: inside %v in %+v: ring walk %v, cursor walk %v", n, up, ur.Faces, got, want)
		}
	}
}
