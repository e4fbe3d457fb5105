package moving_test

import (
	"math"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/mapping"
	"movingdb/internal/moving"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
	"movingdb/internal/workload"
)

// The filters may only exclude what the kernels answer false for. The
// fuzz target spells pairs of moving points unit by unit and holds each
// verdict other than MayHold to the kernels; the seeded tests do the
// same over workload data and also hold the filters to being useful.

// fuzzRegions is the table a fuzz input picks its moving region from.
func fuzzRegions() []moving.MRegion {
	g := workload.New(2000)
	square := spatial.MustPolygonRegion(spatial.Ring(480, 480, 520, 480, 520, 520, 480, 520))
	return []moving.MRegion{
		g.Storm(0, 16, 10, 6),
		g.StormWithEye(20, 16, 10, 6),
		g.StormWithEye(0, 8, 12, 4),
		moving.StaticMRegion(square, temporal.Closed(2, 9)),
		moving.StaticMRegion(square, temporal.Closed(temporal.NegInf, temporal.PosInf)), // NaN cube: must never be filtered on
		{}, // nowhere defined
	}
}

// decodeTrack turns fuzz bytes into a moving point starting at origin at
// time t0. Three bytes per unit: flags (bits 0–2 the duration in half
// time units less one, bit 3 a gap of one time unit before the unit, bit
// 4 a resting unit), then the displacement in x and y as signed bytes,
// four world units a step. Consecutive units with the same motion merge
// in the builder.
func decodeTrack(raw []byte, origin geom.Point, t0 temporal.Instant) (moving.MPoint, bool) {
	var us []units.UPoint
	pos, t := origin, t0
	for k := 0; k+2 < len(raw); k += 3 {
		flags := raw[k]
		if flags&0x08 != 0 {
			t++
		}
		end := t + temporal.Instant(flags&0x07+1)/2
		next := pos.Add(geom.Pt(4*float64(int8(raw[k+1])), 4*float64(int8(raw[k+2]))))
		iv := temporal.RightHalfOpen(t, end)
		if flags&0x10 != 0 || next == pos {
			us = append(us, units.StaticUPoint(iv, pos))
		} else {
			u, err := units.UPointBetween(iv, pos, next)
			if err != nil {
				return moving.MPoint{}, false
			}
			us = append(us, u)
			pos = next
		}
		t = end
	}
	if n := len(us); n > 0 {
		us[n-1].Iv.RC = true // the last unit closes, so two tracks can share exactly one instant
	}
	var bld mapping.Builder[units.UPoint]
	for _, u := range us {
		bld.Append(u)
	}
	m, err := bld.Build()
	return moving.MPoint{M: m}, err == nil
}

// checkFilters holds both filters to the kernels for one (p, q, r, c).
func checkFilters(t *testing.T, p, q moving.MPoint, r moving.MRegion, c float64) {
	t.Helper()
	if v := moving.MayBeInside(p, p.Bounds(), r, r.Bounds()); v != moving.MayHold && p.Inside(r).Sometimes() {
		t.Errorf("MayBeInside = %d, but the point is inside at some time\n p %v\n inside %v", v, p, p.Inside(r))
	}
	for _, pair := range [][2]moving.MPoint{{p, q}, {q, p}} {
		a, b := pair[0], pair[1]
		v := moving.MayComeWithin(a, a.Bounds(), b, b.Bounds(), c)
		if v == moving.MayHold {
			continue
		}
		d := a.Distance(b)
		// "> c" and not "!(<= c)": a NaN minimum would compare true under
		// the executor's <=, so the filter must not skip it either.
		if mn, _, ok := d.Min(); ok && !(mn > c) {
			t.Errorf("MayComeWithin(c=%v) = %d, but min(distance) = %v\n a %v\n b %v", c, v, mn, a, b)
		}
		if first, ok := d.AtMin().Initial(); ok && !(first.Val > c) {
			t.Errorf("MayComeWithin(c=%v) = %d, but val(initial(atmin(distance))) = %v\n a %v\n b %v", c, v, first.Val, a, b)
		}
	}
}

func FuzzFilterConservative(f *testing.F) {
	regions := fuzzRegions()
	const rest, gap = 0x10, 0x08
	n := func(v int8) byte { return byte(v) } // a negative displacement
	for _, s := range []struct {
		a, b   []byte
		bt     float64 // when b starts (a starts at 0)
		ox, oy float64 // where b starts, relative to a's start at (500, 500)
		c      float64
		region uint8
	}{
		{[]byte{1, 10, 0, 1, 10, 0}, []byte{1, 0, 10}, 50, 0, 0, 5, 0},                     // disjoint lifetimes
		{[]byte{1, 10, 0, 1, 10, 0}, []byte{1, 0, 10}, 2, 0, 0, 5, 3},                      // one shared instant: a is [0,2], b starts at 2
		{[]byte{rest | 7, 0, 0}, []byte{rest | 7, 0, 0}, 0, 3, 4, 5, 3},                    // stationary, at distance exactly c
		{[]byte{rest | 7, 0, 0}, []byte{rest | 7, 0, 0}, 0, 3, 4, math.Nextafter(5, 0), 3}, // one ulp below
		{[]byte{rest | 7, 0, 0}, []byte{rest | 7, 0, 0}, 0, 3, 4, math.Nextafter(5, 9), 3}, // one ulp above
		{[]byte{rest | 7, 0, 0}, []byte{rest | 7, 0, 0}, 0, 0, 0, 0, 3},                    // coincident, c = 0
		{[]byte{7, 20, 5, 7, n(-20), 5}, []byte{7, n(-20), 5}, 1, 300, 0, -1, 1},           // c < 0, and a storm with an eye
		{[]byte{7, 1, 1, 7, 1, n(-1)}, []byte{7, 1, 0}, 20, 1, 1, 3, 1},                    // inside the eye's storm while it exists
		{[]byte{7, 30, 0, gap | 7, 30, 0, 7, 0, 30}, []byte{3, 0, n(-30), gap | 3, 0, n(-30)}, 3, 200, 90, 40, 0},
		{[]byte{7, 1, 0}, []byte{7, 1, 0}, 0, 0, 1e-7, 1e-7, 4},                // closer than the margin can resolve; unbounded region
		{[]byte{7, 127, 127}, []byte{7, n(-128), n(-128)}, 0, 1e9, 1e9, 10, 5}, // large coordinates; nowhere-defined region
	} {
		f.Add(s.a, s.b, s.bt, s.ox, s.oy, s.c, s.region)
	}
	f.Fuzz(func(t *testing.T, ra, rb []byte, bt, ox, oy, c float64, region uint8) {
		// Positions and start times of magnitude at most 1e9 and 1e6: far
		// beyond any workload, and finite, which is all the contract asks.
		if !(math.Abs(ox) <= 1e9 && math.Abs(oy) <= 1e9 && math.Abs(bt) <= 1e6) || len(ra) > 96 || len(rb) > 96 {
			t.Skip()
		}
		origin := geom.Pt(500, 500)
		p, okP := decodeTrack(ra, origin, 0)
		q, okQ := decodeTrack(rb, origin.Add(geom.Pt(ox, oy)), temporal.Instant(bt))
		if !okP || !okQ {
			t.Skip()
		}
		checkFilters(t, p, q, regions[int(region)%len(regions)], c)
	})
}

// TestFiltersOnWorkload holds the filters to the kernels on every pair
// of the analytics catalog's shape and checks that they earn their
// keep: they must leave fewer than four pairs for every pair that is
// really true (time-sliced boxes leave about 1.4 for inside and 3 for
// within on this data).
func TestFiltersOnWorkload(t *testing.T) {
	g := workload.New(2000)
	flights := g.Flights(60, 200)
	var storms []moving.MRegion
	for i := 0; i < 6; i++ {
		storms = append(storms, g.Storm(0, 64, 12, 6))
	}
	storms = append(storms, g.StormWithEye(20, 16, 10, 6))

	var inside, within struct{ pairs, object, unit, true int }
	for i, f := range flights {
		pb := f.Flight.Bounds()
		for _, s := range storms {
			checkFilters(t, f.Flight, f.Flight, s, 15)
			inside.pairs++
			switch moving.MayBeInside(f.Flight, pb, s, s.Bounds()) {
			case moving.NoObject:
				inside.object++
			case moving.NoUnit:
				inside.unit++
			}
			if f.Flight.Inside(s).Sometimes() {
				inside.true++
			}
		}
		for _, h := range flights[i+1:] {
			checkFilters(t, f.Flight, h.Flight, storms[0], 15)
			within.pairs++
			switch moving.MayComeWithin(f.Flight, pb, h.Flight, h.Flight.Bounds(), 15) {
			case moving.NoObject:
				within.object++
			case moving.NoUnit:
				within.unit++
			}
			if mn, _, ok := f.Flight.Distance(h.Flight).Min(); ok && mn < 15 {
				within.true++
			}
		}
	}
	t.Logf("inside: %+v", inside)
	t.Logf("within(15): %+v", within)
	for name, n := range map[string]struct{ pairs, object, unit, true int }{"inside": inside, "within": within} {
		if n.true == 0 || n.object == 0 || n.unit == 0 {
			t.Errorf("%s: the workload does not exercise every outcome: %+v", name, n)
		}
		if kept := n.pairs - n.object - n.unit; kept >= 4*n.true {
			t.Errorf("%s: the filter keeps %d pairs for %d true ones", name, kept, n.true)
		}
	}
}

// The filter benchmarks run each predicate over the pairs of the
// benchmark catalog; TestAllocBudgets holds them to zero allocations.

func BenchmarkMayBeInside(b *testing.B) {
	g := workload.New(2000)
	flights := g.Flights(16, 200)
	storm := g.Storm(0, 64, 12, 6)
	pbs := make([]moving.PointBounds, len(flights))
	for i, f := range flights {
		pbs[i] = f.Flight.Bounds()
	}
	rb := storm.Bounds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(flights)
		moving.MayBeInside(flights[k].Flight, pbs[k], storm, rb)
	}
}

func BenchmarkMayComeWithin(b *testing.B) {
	flights := workload.New(2000).Flights(16, 20)
	pbs := make([]moving.PointBounds, len(flights))
	for i, f := range flights {
		pbs[i] = f.Flight.Bounds()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, l := i%len(flights), (i+1)%len(flights)
		moving.MayComeWithin(flights[k].Flight, pbs[k], flights[l].Flight, pbs[l], 15)
	}
}
