package moving_test

import (
	"context"
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

// The filters may only exclude what the kernels answer false for, and
// the fused walks must answer what the kernels answer. The fuzz target
// spells pairs of moving points unit by unit and holds SometimesInside
// to equality with sometimes(inside), and every answer ComesWithin
// decides to the distance chain under both spellings and both
// comparisons; the candidate test and the walk together are held to the
// filter passes they replaced. The seeded tests do the same over
// hand-built and workload data and also hold the filters to being
// useful.

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

// refMayBeInside is the filter pass the executor ran before the inside
// walk was fused with its refinement, kept as the specification of
// SometimesInside's verdict: MayHold for a point whose Mag is not finite,
// NoObject by the whole-value summaries, else MayHold exactly when some
// common piece's sliced point box meets the stored region rectangle.
func refMayBeInside(p moving.MPoint, pb moving.PointBounds, r moving.MRegion, rb moving.RegionBounds) moving.Verdict {
	if !finite(pb.Mag) {
		return moving.MayHold
	}
	if !(float64(pb.Start) <= rb.Cube.MaxT && rb.Cube.MinT <= float64(pb.End)) || !pb.Box.Intersects(rb.Cube.Rect) {
		return moving.NoObject
	}
	pu := p.M.Units()
	for _, ri := range temporal.Refine(p.M.Intervals(), r.M.Intervals()) {
		if ri.A >= 0 && ri.B >= 0 && pu[ri.A].WithInterval(ri.Iv).BBox().Intersects(rb.Units[ri.B]) {
			return moving.MayHold
		}
	}
	return moving.NoUnit
}

// checkInside holds the fused walk to the composed kernels and, with the
// candidate test before it, to the reference verdict for one (p, r), and
// returns what the executor's guard reads: NoObject for a pair the
// candidate test refuses, else the walk's answer and verdict. The walk
// run on a refused pair must answer false with NoUnit.
func checkInside(t testing.TB, p moving.MPoint, r moving.MRegion) (bool, moving.Verdict) {
	t.Helper()
	pb, rb := p.Bounds(), r.Bounds()
	candidate := moving.InsideCandidate(&pb, &rb)
	kernels := 0
	got, v, err := moving.SometimesInsideHook(context.Background(), p, &pb, r, &rb, func() { kernels++ })
	if want := p.Inside(r).Sometimes(); err != nil || got != want {
		t.Errorf("SometimesInside = %v, %v, but sometimes(inside) = %v\n p %v\n inside %v", got, err, want, p, p.Inside(r))
	}
	if kernels > 1 || finite(pb.Mag) && (kernels == 1) != (v == moving.MayHold) {
		t.Errorf("SometimesInside called its hook %d times with verdict %d, want once exactly when a kernel ran\n p %v", kernels, v, p)
	}
	if !candidate {
		if got || v != moving.NoUnit {
			t.Errorf("InsideCandidate refuses the pair, yet SometimesInside = %v with verdict %d, want false with NoUnit\n p %v", got, v, p)
		}
		if !finite(pb.Mag) {
			t.Errorf("InsideCandidate refuses a point whose Mag is %v\n p %v", pb.Mag, p)
		}
		v = moving.NoObject
	}
	if want := refMayBeInside(p, pb, r, rb); v != want || (got && v != moving.MayHold) {
		t.Errorf("SometimesInside = %v with verdict %d (candidate %v), the filter pass says %d\n p %v", got, v, candidate, want, p)
	}
	return got, v
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// refMayComeWithin is the filter pass the executor ran before the
// distance walk was fused with its refinement, kept as the specification
// of ComesWithin's verdict: MayHold for a non-finite margin, NoObject by
// the whole-value summaries, else MayHold exactly when some common
// piece's stored and sliced unit boxes both come within the limit.
func refMayComeWithin(p moving.MPoint, pb moving.PointBounds, q moving.MPoint, qb moving.PointBounds, c float64) moving.Verdict {
	limit := math.Max(c, 0)
	limit += moving.WithinMargin * (1 + limit + pb.Mag + qb.Mag)
	if !finite(limit) {
		return moving.MayHold
	}
	beyond := func(a, b geom.Rect) bool { return boxesBeyond(a, b, limit) }
	if !(pb.Start <= qb.End && qb.Start <= pb.End) || beyond(pb.Box, qb.Box) {
		return moving.NoObject
	}
	pu, qu := p.M.Units(), q.M.Units()
	for _, ri := range temporal.Refine(p.M.Intervals(), q.M.Intervals()) {
		if ri.A >= 0 && ri.B >= 0 && !beyond(pb.Units[ri.A], qb.Units[ri.B]) && !beyond(pu[ri.A].WithInterval(ri.Iv).BBox(), qu[ri.B].WithInterval(ri.Iv).BBox()) {
			return moving.MayHold
		}
	}
	return moving.NoUnit
}

// checkWithin holds the candidate test and the distance walk to the
// reference verdict and, when the walk decides, to all four comparisons
// the executor guards with it: min(distance) and
// val(initial(atmin(distance))), each under < and <= as the executor
// compares (⊥ is false, and so is every comparison with a NaN). Neither
// value may be NaN, and a pair whose chain minimum lies well inside the
// band of width m around c — half of it, so that rounding at the band's
// edge does not count — must be left undecided. The walk run on a pair
// the candidate test refuses must answer false with NoUnit, and a pair
// with a non-finite Mag is always a candidate. It returns what the
// executor's guard reads: NoObject (decided) for a refused pair, else
// the walk's answer.
func checkWithin(t testing.TB, a, b moving.MPoint, c float64) (bool, moving.Verdict, bool) {
	t.Helper()
	pb, qb := a.Bounds(), b.Bounds()
	candidate := moving.WithinCandidate(&pb, &qb, c)
	kernels := 0
	hit, v, decided := moving.ComesWithin(a, &pb, b, &qb, c, func() { kernels++ })
	if !candidate {
		if hit || v != moving.NoUnit {
			t.Errorf("WithinCandidate(c=%v) refuses the pair, yet ComesWithin = %v with verdict %d, want false with NoUnit\n a %v\n b %v", c, hit, v, a, b)
		}
		if !finite(pb.Mag) || !finite(qb.Mag) {
			t.Errorf("WithinCandidate(c=%v) refuses a pair whose Mags are %v and %v\n a %v\n b %v", c, pb.Mag, qb.Mag, a, b)
		}
		v = moving.NoObject
	}
	if want := refMayComeWithin(a, pb, b, qb, c); v != want || (hit && (v != moving.MayHold || !decided)) {
		t.Errorf("ComesWithin(c=%v) = %v with verdict %d (candidate %v, decided %v), the filter pass says %d\n a %v\n b %v", c, hit, v, candidate, decided, want, a, b)
	}
	d := a.Distance(b)
	mn, _, okMin := d.Min()
	first, okFirst := d.AtMin().Initial()
	if (okMin && math.IsNaN(mn)) || (okFirst && math.IsNaN(first.Val)) {
		t.Errorf("the distance chain reads NaN: min %v, val(initial(atmin)) %v\n a %v\n b %v", mn, first.Val, a, b)
	}
	if decided {
		for _, k := range []struct {
			name string
			got  bool
		}{
			{"min(distance) < c", okMin && mn < c},
			{"min(distance) <= c", okMin && mn <= c},
			{"val(initial(atmin(distance))) < c", okFirst && first.Val < c},
			{"val(initial(atmin(distance))) <= c", okFirst && first.Val <= c},
		} {
			if k.got != hit {
				t.Errorf("ComesWithin(c=%v) = %v with verdict %d, but %s is %v (min %v, val %v)\n a %v\n b %v", c, hit, v, k.name, k.got, mn, first.Val, a, b)
			}
		}
	}
	m := moving.WithinMargin * (1 + math.Max(c, 0) + pb.Mag + qb.Mag)
	if kernels > 1 || (kernels == 1) != (v == moving.MayHold && finite(math.Max(c, 0)+m)) {
		t.Errorf("ComesWithin(c=%v) called its hook %d times with verdict %d, want once exactly when a unit distance was formed\n a %v\n b %v", c, kernels, v, a, b)
	}
	if okMin && decided && math.Abs(mn-c) < m/2 {
		t.Errorf("ComesWithin(c=%v) decided %v, but min(distance) = %v lies inside the band of width %v\n a %v\n b %v", c, hit, mn, m, a, b)
	}
	return hit, v, decided
}

// checkFilters holds the inside walk and the distance walk to the
// kernels for one (p, q, r, c).
func checkFilters(t testing.TB, p, q moving.MPoint, r moving.MRegion, c float64) {
	t.Helper()
	checkInside(t, p, r)
	checkWithin(t, p, q, c)
	checkWithin(t, q, p, c)
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
		{[]byte{1, 10, 0, 1, 10, 0}, []byte{1, 0, 10}, 50, 0, 0, 5, 0},                                   // disjoint lifetimes
		{[]byte{1, 10, 0, 1, 10, 0}, []byte{1, 0, 10}, 2, 0, 0, 5, 3},                                    // one shared instant: a is [0,2], b starts at 2
		{[]byte{rest | 7, 0, 0}, []byte{rest | 7, 0, 0}, 0, 3, 4, 5, 3},                                  // stationary, at distance exactly c
		{[]byte{rest | 7, 0, 0}, []byte{rest | 7, 0, 0}, 0, 3, 4, math.Nextafter(5, 0), 3},               // one ulp below
		{[]byte{rest | 7, 0, 0}, []byte{rest | 7, 0, 0}, 0, 3, 4, math.Nextafter(5, 9), 3},               // one ulp above
		{[]byte{rest | 7, 0, 0}, []byte{rest | 7, 0, 0}, 0, 3, 4, 5.0002, 3},                             // in the band above the minimum: undecided, atmin keeps the whole unit
		{[]byte{7, 10, 0}, []byte{rest | 7, 0, 0}, 0, 20, 5, 4.9998, 3},                                  // in the band below a minimum at the vertex: undecided, atmin finds an instant
		{[]byte{rest | 7, 0, 0}, []byte{rest | 7, 0, 0}, 0, 0, 0, 0, 3},                                  // coincident, c = 0
		{[]byte{1, 48, 48}, []byte{rest, 0, 0, gap | rest, 0, 0}, 0, 50, 581, 500, 3},                    // least minimum an infimum before a gap: min < c, atmin is ⊥; undecided
		{[]byte{1, 10, 0, rest | 2, 0, 0}, []byte{1, 10, 0, rest, 0, 0}, 1.4285714285714284, 0, 0, 5, 3}, // b catches up with a: the radicand rounds below zero; undecided
		{[]byte{7, 20, 5, 7, n(-20), 5}, []byte{7, n(-20), 5}, 1, 300, 0, -1, 1},                         // c < 0, and a storm with an eye
		{[]byte{7, 1, 1, 7, 1, n(-1)}, []byte{7, 1, 0}, 20, 1, 1, 3, 1},                                  // inside the eye's storm while it exists
		{[]byte{7, 30, 0, gap | 7, 30, 0, 7, 0, 30}, []byte{3, 0, n(-30), gap | 3, 0, n(-30)}, 3, 200, 90, 40, 0},
		{[]byte{7, 1, 0}, []byte{7, 1, 0}, 0, 0, 1e-7, 1e-7, 4},                // closer than the margin can resolve; unbounded region
		{[]byte{7, 127, 127}, []byte{7, n(-128), n(-128)}, 0, 1e9, 1e9, 10, 5}, // large coordinates; nowhere-defined region
		// For the fused walk, against the square [480, 520]² that exists on [2, 9].
		{[]byte{1, 30, 0, rest | 7, 0, 0, 7, n(-30), 0}, []byte{1, 0, 10}, 0, 0, 0, 5, 3},     // inside only in the last common piece
		{[]byte{1, 10, 0, 1, n(-10), 0}, []byte{1, 0, 10}, 0, 0, 0, 5, 3},                     // inside only at the one shared instant, t = 2
		{[]byte{1, 15, n(-5), 7, n(-20), 20}, []byte{1, 0, 10}, 0, 0, 0, 5, 3},                // only touches the corner (520, 520), at t = 3
		{[]byte{rest | 7, 0, 0, rest | 7, 0, 0}, []byte{1, 0, 10}, 0, 0, 0, 5, 4},             // rests in the square of the unbounded region (NaN cube)
		{[]byte{7, 1, 0, 7, n(-1), 0, 7, 0, 1, 7, 0, n(-1)}, []byte{1, 0, 10}, 0, 0, 0, 5, 2}, // many pieces of a storm with an eye
	} {
		f.Add(s.a, s.b, s.bt, s.ox, s.oy, s.c, s.region)
	}
	// Named pairs whose coordinates the byte spelling cannot reach.
	for _, s := range []struct {
		name string
		a, b moving.MPoint
		c    float64
	}{
		// Two flights meet at t ≈ 4.52, where the radicand of their unit
		// distance rounds below zero: the chain must not read NaN.
		{"two flights meet",
			track(0, 548.30212201912, 359.35178307712, 10, 638.30212201912, 199.35178307712),
			track(0, 534.73616269216, 205.60424403823998, 10, 654.73616269216, 385.60424403824), 1},
	} {
		checkFilters(f, s.a, s.b, regions[3], s.c)
		if f.Failed() {
			f.Fatalf("named pair %q", s.name)
		}
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

// stepSquares is a moving region of n units that do not merge: the
// square [0, 10]² grows to [0, 11]² on every other unit [i, i+1); the
// last unit is closed.
func stepSquares(n int) moving.MRegion {
	us := make([]units.URegion, n)
	for i := range us {
		side := 10 + float64(i%2)
		sq := spatial.MustPolygonRegion(spatial.Ring(0, 0, side, 0, side, side, 0, side))
		iv := temporal.RightHalfOpen(temporal.Instant(i), temporal.Instant(i+1))
		iv.RC = i == n-1
		us[i] = moving.StaticMRegion(sq, iv).M.Units()[0]
	}
	return moving.MustMRegion(us...)
}

// TestSometimesInsideEdges runs the fused walk over pairs built for the
// places it could part from the composed kernels — where the first true
// piece is, how little of it there is, and what switches the boxes off —
// and holds the answer and the verdict to what each pair was built for.
func TestSometimesInsideEdges(t *testing.T) {
	track := func(samples ...moving.Sample) moving.MPoint {
		p, err := moving.MPointFromSamples(samples)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	at := func(ti float64, x, y float64) moving.Sample {
		return moving.Sample{T: temporal.Instant(ti), P: geom.Pt(x, y)}
	}
	forever := temporal.Closed(temporal.NegInf, temporal.PosInf)
	unit := spatial.MustPolygonRegion(spatial.Ring(0, 0, 10, 0, 10, 10, 0, 10))
	steps := stepSquares(8)
	for _, tc := range []struct {
		name    string
		p       moving.MPoint
		r       moving.MRegion
		want    bool
		verdict moving.Verdict
	}{
		{"true only in the last common piece", track(at(0, 100, 5), at(7, 20, 5), at(8, 5, 5)), steps, true, moving.MayHold},
		{"true only at the one shared instant", track(at(8, 5, 5), at(12, 50, 5)), steps, true, moving.MayHold},
		{"a touch of the corner is the only true", track(at(0, 19, 1), at(8, 3, 17)), steps, true, moving.MayHold},
		{"passes the corner's box, never the square", track(at(0, 22, 1), at(8, 6, 17)), steps, false, moving.MayHold},
		{"unit boxes refuse every piece", track(at(0, 30, 5), at(4, 30, 40), at(8, 5, 40)), steps, false, moving.NoUnit},
		{"disjoint lifetimes", track(at(9, 5, 5), at(12, 5, 5)), steps, false, moving.NoObject},
		{"non-finite Mag, inside", moving.MustMPoint(units.StaticUPoint(forever, geom.Pt(5, 5))), steps, true, moving.MayHold},
		{"non-finite Mag, far away: walked unfiltered", moving.MustMPoint(units.StaticUPoint(forever, geom.Pt(500, 5))), steps, false, moving.MayHold},
		{"non-finite Mag, nowhere-defined region", moving.MustMPoint(units.StaticUPoint(forever, geom.Pt(5, 5))), moving.MRegion{}, false, moving.MayHold},
		{"nowhere-defined region", track(at(0, 5, 5), at(8, 6, 6)), moving.MRegion{}, false, moving.NoObject},
		{"nowhere-defined point", moving.MPoint{}, steps, false, moving.NoObject},
		{"NaN-poisoned region rectangle", track(at(0, 5, 5), at(8, 6, 6)), moving.StaticMRegion(unit, forever), true, moving.MayHold},
	} {
		if got, v := checkInside(t, tc.p, tc.r); got != tc.want || v != tc.verdict {
			t.Errorf("%s: SometimesInside = %v with verdict %d, built for %v with %d", tc.name, got, v, tc.want, tc.verdict)
		}
	}
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
	undecided := 0
	for i, f := range flights {
		for _, s := range storms {
			checkFilters(t, f.Flight, f.Flight, s, 15)
			inside.pairs++
			hit, v := checkInside(t, f.Flight, s)
			switch v {
			case moving.NoObject:
				inside.object++
			case moving.NoUnit:
				inside.unit++
			}
			if hit {
				inside.true++
			}
		}
		for _, h := range flights[i+1:] {
			checkFilters(t, f.Flight, h.Flight, storms[0], 15)
			within.pairs++
			_, v, decided := checkWithin(t, f.Flight, h.Flight, 15)
			switch v {
			case moving.NoObject:
				within.object++
			case moving.NoUnit:
				within.unit++
			}
			if !decided {
				undecided++
			}
			if mn, _, ok := f.Flight.Distance(h.Flight).Min(); ok && mn < 15 {
				within.true++
			}
		}
	}
	t.Logf("inside: %+v", inside)
	t.Logf("within(15): %+v, %d left to the chain", within, undecided)
	if undecided*100 > within.pairs {
		t.Errorf("the distance walk leaves %d of %d pairs undecided: the band is too wide to pay", undecided, within.pairs)
	}
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

func BenchmarkSometimesInside(b *testing.B) {
	g := workload.New(2000)
	flights := g.Flights(16, 200)
	storm := g.Storm(0, 64, 12, 6)
	pbs := make([]moving.PointBounds, len(flights))
	for i, f := range flights {
		pbs[i] = f.Flight.Bounds()
	}
	rb := storm.Bounds()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(flights)
		if _, _, err := moving.SometimesInside(ctx, flights[k].Flight, &pbs[k], storm, &rb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComesWithin(b *testing.B) {
	flights := workload.New(2000).Flights(16, 20)
	pbs := make([]moving.PointBounds, len(flights))
	for i, f := range flights {
		pbs[i] = f.Flight.Bounds()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, l := i%len(flights), (i+1)%len(flights)
		moving.ComesWithin(flights[k].Flight, &pbs[k], flights[l].Flight, &pbs[l], 15, nil)
	}
}
