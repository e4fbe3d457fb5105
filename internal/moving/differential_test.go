package moving_test

import (
	"math"
	"slices"
	"testing"

	"movingdb/internal/baseline"
	"movingdb/internal/geom"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
	"movingdb/internal/workload"
)

// The differential safety net under the §5 kernels: the sliced
// operations are held to the unsliced baseline (all fragment pairs, no
// refinement partition) and to per-unit brute force on seeded workload
// data, and every value they produce must satisfy the §3.2.4 carrier
// set constraints — closure of the representation as a metamorphic law.
// Under -tags=debugcheck the same runs also pass through the assertions
// compiled into the trusted construction paths.

// diffSeeds are the workload seeds the differential tests sweep.
var diffSeeds = []int64{1, 7, 2000}

func diffData(seed int64) ([]workload.Flight, []moving.MRegion) {
	g := workload.New(seed)
	flights := g.Flights(24, 200)
	storms := make([]moving.MRegion, 0, 5)
	for i := 0; i < 4; i++ {
		storms = append(storms, g.Storm(0, 32, 10, 6))
	}
	storms = append(storms, g.StormWithEye(20, 16, 10, 6))
	return flights, storms
}

func mustValid(t *testing.T, what string, err error) {
	t.Helper()
	if err != nil {
		t.Errorf("%s violates the mapping carrier set: %v", what, err)
	}
}

func TestInsideMatchesBaseline(t *testing.T) {
	for _, seed := range diffSeeds {
		flights, storms := diffData(seed)
		hits := 0
		for _, f := range flights {
			naiveP := baseline.FromMPoint(f.Flight)
			for si, s := range storms {
				got := f.Flight.Inside(s)
				mustValid(t, "Inside", got.M.Validate())
				want := naiveP.Inside(baseline.FromMRegion(s))
				if !slices.Equal(got.M.Units(), want.M.Units()) {
					t.Errorf("seed %d flight %s storm %d:\n sliced %v\n naive  %v", seed, f.ID, si, got, want)
				}
				if got.Sometimes() {
					hits++
				}
			}
		}
		if hits == 0 {
			t.Errorf("seed %d: no flight ever enters a storm; the comparison is vacuous", seed)
		}
	}
}

// closestApproach is the brute-force side of the distance comparison:
// for every pair of units with a common interval, the instant of closest
// approach of the two linear motions in closed form, clamped to the
// interval, with the distance taken from the evaluated positions.
func closestApproach(p, q moving.MPoint) (float64, bool) {
	best, ok := math.Inf(1), false
	for _, up := range p.M.Units() {
		for _, uq := range q.M.Units() {
			iv, meet := up.Iv.Intersect(uq.Iv)
			if !meet {
				continue
			}
			ok = true
			d0 := up.M.Eval(0).Sub(uq.M.Eval(0))
			d1 := up.M.Velocity().Sub(uq.M.Velocity())
			cands := []temporal.Instant{iv.Start, iv.End}
			if n := d1.X*d1.X + d1.Y*d1.Y; n > 0 {
				ts := temporal.Instant(-(d0.X*d1.X + d0.Y*d1.Y) / n)
				if iv.Contains(ts) {
					cands = append(cands, ts)
				}
			}
			for _, c := range cands {
				best = math.Min(best, up.Eval(c).Dist(uq.Eval(c)))
			}
		}
	}
	return best, ok
}

func TestDistanceAtMinMatchesBruteForce(t *testing.T) {
	for _, seed := range diffSeeds {
		flights, _ := diffData(seed)
		for i, f := range flights {
			for _, g := range flights[i+1:] {
				d := f.Flight.Distance(g.Flight)
				mustValid(t, "Distance", d.M.Validate())
				am := d.AtMin()
				mustValid(t, "AtMin", am.M.Validate())
				got, ok := am.Initial()
				want, overlap := closestApproach(f.Flight, g.Flight)
				if ok != overlap {
					t.Errorf("seed %d %s/%s: defined=%v, brute force overlap=%v", seed, f.ID, g.ID, ok, overlap)
					continue
				}
				if !ok {
					continue
				}
				if math.Abs(got.Val-want) > 1e-6*math.Max(1, want) {
					t.Errorf("seed %d %s/%s: atmin value %v, brute force %v", seed, f.ID, g.ID, got.Val, want)
				}
				// The reported instant must attain it, by the positions.
				pa, pb := f.Flight.AtInstant(got.Inst), g.Flight.AtInstant(got.Inst)
				if !pa.Defined() || !pb.Defined() {
					t.Errorf("seed %d %s/%s: atmin instant %v outside the common lifetime", seed, f.ID, g.ID, got.Inst)
				} else if at := pa.P.Dist(pb.P); math.Abs(at-want) > 1e-6*math.Max(1, want) {
					t.Errorf("seed %d %s/%s: distance at the atmin instant %v is %v, minimum %v", seed, f.ID, g.ID, got.Inst, at, want)
				}
			}
		}
	}
}

// square is a static region [0,10]² sliced into two units that meet at
// t = 5, so a crossing can be placed exactly on a unit end.
func square() moving.MRegion {
	ring := units.MCycle{
		units.StaticMPoint(geom.Pt(0, 0)), units.StaticMPoint(geom.Pt(10, 0)),
		units.StaticMPoint(geom.Pt(10, 10)), units.StaticMPoint(geom.Pt(0, 10)),
	}
	// The second unit is the same square listed from another vertex, so
	// the two units differ in representation and do not merge.
	rot := units.MCycle{ring[1], ring[2], ring[3], ring[0]}
	return moving.MustMRegion(
		units.URegionUnchecked(temporal.RightHalfOpen(0, 5), []units.MFace{{Outer: ring}}),
		units.URegionUnchecked(temporal.Closed(5, 10), []units.MFace{{Outer: rot}}),
	)
}

func track(coords ...float64) moving.MPoint {
	var s []moving.Sample
	for i := 0; i+2 < len(coords); i += 3 {
		s = append(s, moving.Sample{T: temporal.Instant(coords[i]), P: geom.Pt(coords[i+1], coords[i+2])})
	}
	p, err := moving.MPointFromSamples(s)
	if err != nil {
		panic(err)
	}
	return p
}

func TestInsideBoundaryCases(t *testing.T) {
	sq := square()
	for _, c := range []struct {
		name string
		p    moving.MPoint
		want []units.UBool
	}{
		{
			// Starts on the boundary (x = 0) and moves inward.
			name: "starts on the boundary",
			p:    track(0, 0, 5, 10, 5, 5),
			want: []units.UBool{{Iv: temporal.Closed(0, 10), V: true}},
		},
		{
			// Leaves through x = 10 exactly at t = 5, the unit end of
			// both the region and the point. The kernel decides a piece
			// whose interval starts on a crossing by the state right
			// after it, so the boundary instant goes with the later unit.
			name: "crossing exactly at a unit end",
			p:    track(0, 5, 5, 5, 10, 5, 10, 15, 5),
			want: []units.UBool{
				{Iv: temporal.RightHalfOpen(0, 5), V: true},
				{Iv: temporal.Closed(5, 10), V: false},
			},
		},
		{
			// Enters at t = 2.5, inside one unit, and is inside across
			// the region's unit end.
			name: "inside across the unit end",
			p:    track(0, -5, 5, 10, 15, 5),
			want: []units.UBool{
				{Iv: temporal.RightHalfOpen(0, 2.5), V: false},
				{Iv: temporal.Closed(2.5, 7.5), V: true},
				{Iv: temporal.LeftHalfOpen(7.5, 10), V: false},
			},
		},
	} {
		got := c.p.Inside(sq)
		mustValid(t, c.name, got.M.Validate())
		if !slices.Equal(got.M.Units(), c.want) {
			t.Errorf("%s: sliced %v, want %v", c.name, got, c.want)
		}
		naive := baseline.FromMPoint(c.p).Inside(baseline.FromMRegion(sq))
		if !slices.Equal(naive.M.Units(), c.want) {
			t.Errorf("%s: naive %v, want %v", c.name, naive, c.want)
		}
	}
}

// sameSpans compares two period sets up to the closure of their end
// points: a restricted point that ends exactly on the region boundary is
// a crossing at the end of its interval, and the kernel leaves that one
// instant out of the piece it closes.
func sameSpans(p, q temporal.Periods) bool {
	return slices.EqualFunc(p.Intervals(), q.Intervals(), func(a, b temporal.Interval) bool {
		return a.Start == b.Start && a.End == b.End
	})
}

// TestRestrictionCommutes is the closure law on restriction: restricting
// the point to periods and then asking inside is the same moving bool as
// asking inside and then restricting, and when(p, inside(p, r)) is inside
// r throughout and defined where inside was true.
func TestRestrictionCommutes(t *testing.T) {
	for _, seed := range diffSeeds {
		flights, storms := diffData(seed)
		for _, f := range flights {
			dt := f.Flight.DefTime()
			lo, _ := dt.Min()
			// Three windows that cut units in their interior, the middle
			// one half-open.
			per := temporal.MustPeriods(
				temporal.Closed(lo+3, lo+17.5),
				temporal.RightHalfOpen(lo+21, lo+40),
				temporal.Closed(lo+55.25, lo+300),
			)
			for si, s := range storms {
				in := f.Flight.Inside(s)
				restricted := f.Flight.AtPeriods(per)
				mustValid(t, "MPoint.AtPeriods", restricted.M.Validate())
				a := restricted.Inside(s)
				b := in.AtPeriods(per)
				mustValid(t, "Inside∘AtPeriods", a.M.Validate())
				mustValid(t, "AtPeriods∘Inside", b.M.Validate())
				if !slices.Equal(a.M.Units(), b.M.Units()) {
					t.Errorf("seed %d flight %s storm %d: inside(atperiods) %v, atperiods(inside) %v", seed, f.ID, si, a, b)
				}

				part := f.Flight.When(in)
				mustValid(t, "When", part.M.Validate())
				again := part.Inside(s)
				mustValid(t, "Inside∘When", again.M.Validate())
				if !again.M.IsEmpty() && !again.Always() {
					t.Errorf("seed %d flight %s storm %d: the part of the flight inside the storm is not always inside: %v", seed, f.ID, si, again)
				}
				if !sameSpans(again.WhenTrue(), in.WhenTrue()) {
					t.Errorf("seed %d flight %s storm %d: when/inside periods %v, inside periods %v", seed, f.ID, si, again.WhenTrue(), in.WhenTrue())
				}
			}
		}
	}
}

// TestLiftedOpsClosed runs the remaining lifted binary operations over
// the refinement partition and holds every result to Validate.
func TestLiftedOpsClosed(t *testing.T) {
	flights, storms := diffData(diffSeeds[0])
	for i, f := range flights[:len(flights)-1] {
		g := flights[i+1]
		df, dg := f.Flight.DistanceToPoint(geom.Pt(500, 500)), g.Flight.DistanceToPoint(geom.Pt(500, 500))
		lt, ok := df.LessThan(dg)
		if !ok {
			t.Fatalf("LessThan on two root units not decided")
		}
		mustValid(t, "LessThan", lt.M.Validate())
	}
	for i, s := range storms[:len(storms)-1] {
		x := s.Intersects(storms[i+1])
		mustValid(t, "Intersects", x.M.Validate())
	}
}
