package units_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
	"movingdb/internal/workload"
)

// TestPointInRegionAtMatchesRegion holds the inside kernels' plumbline,
// which walks the moving rings and evaluates each vertex once, to an
// oracle that shares none of that code: the static region the unit
// evaluates to at the instant (URegion.EvalAt) and its own point test
// (spatial.Region.ContainsPoint, the plumbline over its halfsegments).
// The instants are interior to the units and the points lie off the
// boundary, where the two tests are exact and must agree; the units are
// the analytics workload's storms (the data seed and sizes of its
// catalog: 16 storms of 64 units with 12 vertices) and random star rings
// with star holes, drifting and breathing.
func TestPointInRegionAtMatchesRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	checked := 0
	check := func(name string, ur units.URegion) {
		for k := 0; k < 2; k++ {
			s, e := float64(ur.Iv.Start), float64(ur.Iv.End)
			at := temporal.Instant(s + (0.05+0.9*rng.Float64())*(e-s))
			reg, ok := ur.EvalAt(at)
			if !ok {
				t.Fatalf("%s: no region at %v", name, at)
			}
			var segs []geom.Segment
			for _, f := range ur.Faces {
				for _, c := range append([]units.MCycle{f.Outer}, f.Holes...) {
					ring := c.Eval(at)
					for i := range ring {
						segs = append(segs, geom.MustSegment(ring[i], ring[(i+1)%len(ring)]))
					}
				}
			}
			box := reg.BBox()
			w, h := box.MaxX-box.MinX, box.MaxY-box.MinY
			for j := 0; j < 8; j++ {
				p := geom.Pt(box.MinX-0.1*w+1.2*w*rng.Float64(), box.MinY-0.1*h+1.2*h*rng.Float64())
				near := math.Inf(1)
				for _, sg := range segs {
					near = min(near, sg.DistToPoint(p))
				}
				if near < 1e-6*(1+w+h) {
					continue // on or at the boundary: no exact answer to hold either to
				}
				checked++
				if got, want := units.PointInRegionAt(units.StaticMPoint(p), ur, at), reg.ContainsPoint(p); got != want {
					t.Fatalf("%s: point %v at %v: plumbline %v, region %v", name, p, at, got, want)
				}
			}
		}
	}

	g := workload.New(2000)
	g.Flights(200, 200) // the catalog draws the flights first
	for i := 0; i < 16; i++ {
		for k, ur := range g.Storm(0, 64, 12, 6).M.Units() {
			check(fmt.Sprintf("storm%02d unit %d", i, k), ur)
		}
	}

	sg := workload.New(52)
	for n := 0; n < 300; n++ {
		center := geom.Pt(1000*rng.Float64(), 1000*rng.Float64())
		vel := geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10)
		scale := 0.8 + 0.4*rng.Float64()
		move := func(ring []geom.Point) units.MCycle {
			c := make(units.MCycle, len(ring))
			for k, p := range ring {
				q := center.Add(vel).Add(p.Sub(center).Scale(scale))
				m, err := units.MPointThrough(0, p, 10, q)
				if err != nil {
					t.Fatal(err)
				}
				c[k] = m
			}
			return c
		}
		face := units.MFace{Outer: move(sg.StarRing(center, 100, 5+rng.Intn(12)))}
		// Zero to two holes, left and right of the center: a hole's
		// vertices lie within 24 of its center, 45 off, and the outer
		// ring's at least 80 from the center.
		for h := rng.Intn(3); h > 0; h-- {
			off := geom.Pt(float64(90*h-135), 0)
			face.Holes = append(face.Holes, move(sg.StarRing(center.Add(off), 20, 3+rng.Intn(6))))
		}
		check("star ring", units.URegionUnchecked(temporal.Closed(0, 10), []units.MFace{face}))
	}
	if checked < 10000 {
		t.Fatalf("only %d points off the boundary were checked", checked)
	}
}
