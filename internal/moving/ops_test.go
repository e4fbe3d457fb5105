package moving

import (
	"math"
	"math/rand"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

func TestLessThanPolyPoly(t *testing.T) {
	// t vs 10−t on [0,10]: r < s before t=5.
	r := MustMReal(units.NewUReal(iv(0, 10), 0, 1, 0, false))
	s := MustMReal(units.NewUReal(iv(0, 10), 0, -1, 10, false))
	lt, ok := r.LessThan(s)
	if !ok {
		t.Fatal("poly vs poly not comparable")
	}
	wt := lt.WhenTrue()
	if wt.Len() != 1 {
		t.Fatalf("WhenTrue = %v", wt)
	}
	got := wt.Intervals()[0]
	if got.Start != 0 || got.End != 5 || got.RC {
		t.Errorf("less interval = %v, want [0, 5)", got)
	}
}

func TestLessThanRootRoot(t *testing.T) {
	// Distances of two point pairs: the join idiom "when was p closer to
	// a than to b".
	p, _ := MPointFromSamples(samplesPath(0, 0, 0, 10, 10, 0))
	a, _ := MPointFromSamples(samplesPath(0, 0, 0, 10, 0, 0))   // static at origin
	b, _ := MPointFromSamples(samplesPath(0, 10, 0, 10, 10, 0)) // static at (10,0)
	da := p.Distance(a)
	db := p.Distance(b)
	lt, ok := da.LessThan(db)
	if !ok {
		t.Fatal("root vs root not comparable")
	}
	wt := lt.WhenTrue()
	// p is closer to the origin before the midpoint x=5, i.e. t<5.
	if !wt.Contains(2) || wt.Contains(7) || wt.Contains(5) {
		t.Errorf("closer-to-a period = %v", wt)
	}
}

func TestLessThanRootConst(t *testing.T) {
	p, _ := MPointFromSamples(samplesPath(0, 0, 0, 10, 10, 0))
	q, _ := MPointFromSamples(samplesPath(0, 10, 0, 10, 0, 0))
	d := p.Distance(q)
	c := MustMReal(units.ConstUReal(iv(0, 10), 4))
	lt, ok := d.LessThan(c)
	if !ok {
		t.Fatal("root vs const not comparable")
	}
	// |10−2t| < 4 ⟺ 3 < t < 7.
	wt := lt.WhenTrue()
	if wt.Len() != 1 {
		t.Fatalf("WhenTrue = %v", wt)
	}
	got := wt.Intervals()[0]
	if got.Start != 3 || got.End != 7 {
		t.Errorf("interval = %v", got)
	}
	// Symmetric: const vs root.
	gt, ok := c.LessThan(d)
	if !ok {
		t.Fatal("const vs root not comparable")
	}
	if gt.WhenTrue().Contains(5) || !gt.WhenTrue().Contains(1) {
		t.Errorf("const < root = %v", gt.WhenTrue())
	}
	// Negative constant: distance is always greater.
	neg := MustMReal(units.ConstUReal(iv(0, 10), -1))
	lt2, ok := d.LessThan(neg)
	if !ok || lt2.Sometimes() {
		t.Error("distance < negative constant should never hold")
	}
	// Root vs non-constant polynomial: not closed.
	poly := MustMReal(units.NewUReal(iv(0, 10), 0, 1, 0, false))
	if _, ok := d.LessThan(poly); ok {
		t.Error("root vs linear polynomial should not be comparable")
	}
}

func TestTravelledDistanceVsLength(t *testing.T) {
	// Out and back: travelled 20, trajectory length 10.
	p, _ := MPointFromSamples(samplesPath(0, 0, 0, 10, 10, 0, 20, 0, 0))
	if got := p.TravelledDistance(); math.Abs(got-20) > 1e-9 {
		t.Errorf("travelled = %v", got)
	}
	if got := p.Length(); got != 10 {
		t.Errorf("trajectory length = %v", got)
	}
}

func TestMPointsCount(t *testing.T) {
	a := units.MPoint{X0: 0, X1: 1}
	b := units.MPoint{X0: 0, X1: 1, Y0: 5}
	c := units.MPoint{X0: 9, Y0: 9}
	mp := MustMPoints(
		units.MustUPoints(rho(0, 5), a, b),
		units.MustUPoints(iv(5, 9), a, b, c),
	)
	cnt := mp.Count()
	if cnt.AtInstant(2).MustGet() != 2 || cnt.AtInstant(7).MustGet() != 3 {
		t.Errorf("count = %v", cnt)
	}
	if cnt.AtInstant(10).Defined() {
		t.Error("count defined beyond deftime")
	}
}

func TestMRegionInitialFinal(t *testing.T) {
	sq := []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4)}
	var mc units.MCycle
	for _, p := range sq {
		mc = append(mc, units.MPoint{X0: p.X, X1: 1, Y0: p.Y})
	}
	mr := MustMRegion(units.MustURegion(iv(0, 10), units.MFace{Outer: mc}))
	t0, r0, ok := mr.Initial()
	if !ok || t0 != 0 || !r0.ContainsPoint(geom.Pt(1, 1)) {
		t.Errorf("Initial = %v, %v, %v", t0, r0, ok)
	}
	t1, r1, ok := mr.Final()
	if !ok || t1 != 10 || !r1.ContainsPoint(geom.Pt(12, 2)) {
		t.Errorf("Final = %v, %v, %v", t1, r1, ok)
	}
	var empty MRegion
	if _, _, ok := empty.Initial(); ok {
		t.Error("empty Initial")
	}
}

func TestAtRegion(t *testing.T) {
	p, _ := MPointFromSamples(samplesPath(0, 0, 0, 10, 10, 0))
	zone := spatial.MustPolygonRegion(spatial.Ring(4, -1, 6, -1, 6, 1, 4, 1))
	at := p.AtRegion(zone)
	if !at.DefTime().Equal(temporal.MustPeriods(iv(4, 6))) {
		t.Errorf("AtRegion deftime = %v", at.DefTime())
	}
}

func TestMBoolAggregates(t *testing.T) {
	allTrue := MustMBool(units.UBool{Iv: iv(0, 5), V: true})
	mixed := MustMBool(units.UBool{Iv: rho(0, 2), V: true}, units.UBool{Iv: iv(2, 5), V: false})
	allFalse := MustMBool(units.UBool{Iv: iv(0, 5), V: false})
	var empty MBool

	if !allTrue.Always() || !allTrue.Sometimes() {
		t.Error("allTrue aggregates wrong")
	}
	if mixed.Always() || !mixed.Sometimes() {
		t.Error("mixed aggregates wrong")
	}
	if allFalse.Always() || allFalse.Sometimes() {
		t.Error("allFalse aggregates wrong")
	}
	if empty.Always() || empty.Sometimes() {
		t.Error("empty aggregates wrong")
	}
	if got := mixed.TrueDuration(); got != 2 {
		t.Errorf("TrueDuration = %v", got)
	}
}

func TestMRegionIntersects(t *testing.T) {
	sq := func(x, y, w float64) []geom.Point {
		return []geom.Point{geom.Pt(x, y), geom.Pt(x+w, y), geom.Pt(x+w, y+w), geom.Pt(x, y+w)}
	}
	translate := func(ring []geom.Point, vx, vy float64) units.MCycle {
		var mc units.MCycle
		for _, p := range ring {
			mc = append(mc, units.MPoint{X0: p.X, X1: vx, Y0: p.Y, Y1: vy})
		}
		return mc
	}
	// a spans x ∈ [t, 4+t]; b spans [20−t, 24−t]: they meet when
	// 4+t = 20−t → t=8 and separate when t = 24−t → t=12.
	a := MustMRegion(units.MustURegion(iv(0, 20), units.MFace{Outer: translate(sq(0, 0, 4), 1, 0)}))
	b := MustMRegion(units.MustURegion(iv(0, 20), units.MFace{Outer: translate(sq(20, 0, 4), -1, 0)}))
	ib := a.Intersects(b)
	wt := ib.WhenTrue()
	if wt.Len() != 1 {
		t.Fatalf("intersects = %v", wt)
	}
	got := wt.Intervals()[0]
	if math.Abs(float64(got.Start)-8) > 1e-9 || math.Abs(float64(got.End)-12) > 1e-9 {
		t.Errorf("intersect period = %v, want [8, 12]", got)
	}
	// Regions that never meet.
	c := MustMRegion(units.MustURegion(iv(0, 20), units.MFace{Outer: translate(sq(500, 500, 4), 0, 0)}))
	if a.Intersects(c).Sometimes() {
		t.Error("distant regions intersect")
	}
	// Disjoint definition times yield the empty moving bool.
	d := MustMRegion(units.MustURegion(iv(30, 40), units.MFace{Outer: translate(sq(0, 0, 4), 1, 0)}))
	if !a.Intersects(d).M.IsEmpty() {
		t.Error("disjoint deftimes produced pieces")
	}
}

func TestRangeValues(t *testing.T) {
	// (t−5)² on [0,10]: values [0, 25].
	r := MustMReal(units.NewUReal(iv(0, 10), 1, -10, 25, false))
	rv := r.RangeValues()
	if rv.Len() != 1 {
		t.Fatalf("range = %v", rv)
	}
	got := rv.Intervals()[0]
	if got.Start != 0 || got.End != 25 || !got.LC || !got.RC {
		t.Errorf("value range = %v, want [0, 25]", got)
	}
	// Open unit end: t on [0,10) takes values [0, 10) — the supremum is
	// not attained.
	r2 := MustMReal(units.NewUReal(rho(0, 10), 0, 1, 0, false))
	rv2 := r2.RangeValues()
	got2 := rv2.Intervals()[0]
	if got2.Start != 0 || got2.End != 10 || !got2.LC || got2.RC {
		t.Errorf("open-end value range = %v, want [0, 10)", got2)
	}
	// Two separated plateaus merge into a two-interval range.
	r3 := MustMReal(
		units.ConstUReal(rho(0, 1), 3),
		units.ConstUReal(rho(1, 2), 8),
	)
	rv3 := r3.RangeValues()
	if rv3.Len() != 2 || !rv3.Contains(3) || !rv3.Contains(8) || rv3.Contains(5) {
		t.Errorf("plateau range = %v", rv3)
	}
	// Open and unbounded units: a constant takes its value at every
	// instant, open ends or not; at an infinite end the function's limit
	// is the bound, and an infinite bound is open.
	inf := math.Inf(1)
	for _, c := range []struct {
		u    units.UReal
		want temporal.IntervalOf[float64]
	}{
		{units.ConstUReal(temporal.Open(0, 1), 5), temporal.IntervalOf[float64]{Start: 5, End: 5, LC: true, RC: true}},
		{units.ConstUReal(temporal.Open(temporal.NegInf, temporal.PosInf), 1600), temporal.IntervalOf[float64]{Start: 1600, End: 1600, LC: true, RC: true}},
		{units.NewUReal(temporal.MustInterval(0, temporal.PosInf, true, false), -1, 0, 5, false), temporal.IntervalOf[float64]{Start: -inf, End: 5, RC: true}},
		{units.NewUReal(temporal.Open(temporal.NegInf, 0), 0, 2, -1, false), temporal.IntervalOf[float64]{Start: -inf, End: -1}},
		// √(1 − t²) on (0, 2): the radicand is negative near the open end
		// 2, where the unit reads 0 on [1, 2); 1 is only approached at 0.
		{units.NewUReal(temporal.Open(0, 2), -1, 0, 1, true), temporal.IntervalOf[float64]{Start: 0, End: 1, LC: true}},
	} {
		rv := MustMReal(c.u).RangeValues()
		if rv.Len() != 1 || rv.Intervals()[0] != c.want {
			t.Errorf("rangevalues(%v) = %v, want {%v}", c.u, rv, c.want)
		}
	}
}

// TestMRealAtRangeProperty checks at(mreal, range(real)) and rangevalues
// on random quadratic and √quadratic moving reals: at instants whose
// value is not within 1e-6 of a range endpoint, the restriction is
// defined exactly where the value lies in the range, and every sampled
// value lies in the value range.
func TestMRealAtRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	coef := func() float64 { return math.Round((rng.Float64()*4-2)*8) / 8 }
	for c := 0; c < 3000; c++ {
		var us []units.UReal
		at := 0.0
		for k, n := 0, 1+rng.Intn(4); k < n; k++ {
			end := at + 1 + float64(rng.Intn(4))
			u := rho(at, end)
			if k == n-1 && rng.Intn(2) == 0 {
				u = iv(at, end)
			}
			a, b := coef(), coef()*4
			root := rng.Intn(2) == 0
			cc := coef() * 8
			if root {
				// a ≥ 0 and c above the vertex keep the radicand positive.
				a = math.Abs(a)
				cc = math.Abs(cc) + 0.5
				if a > 0 {
					cc += b * b / (4 * a)
				} else {
					b = 0
				}
			}
			us = append(us, units.NewUReal(u, a, b, cc, root))
			at = end
		}
		r, err := NewMReal(us...)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		var ivs []temporal.IntervalOf[float64]
		var ends []float64
		for k, n := 0, 1+rng.Intn(3); k < n; k++ {
			s, e := rng.Float64()*20-6, rng.Float64()*20-6
			if e < s {
				s, e = e, s
			}
			lc, rc := rng.Intn(2) == 0, rng.Intn(2) == 0
			ivs = append(ivs, temporal.IntervalOf[float64]{Start: s, End: e, LC: lc || s == e, RC: rc || s == e})
			ends = append(ends, s, e)
		}
		R, err := temporal.NewRange(ivs...)
		if err != nil {
			t.Fatal(err)
		}
		res := r.At(R)
		if err := res.M.Validate(); err != nil {
			t.Fatalf("case %d: At(%v, %v) invalid: %v", c, r, R, err)
		}
		rv := r.RangeValues()
		if err := rv.Validate(); err != nil {
			t.Fatalf("case %d: RangeValues(%v) invalid: %v", c, r, err)
		}
	sample:
		for k := 0; k < 20; k++ {
			tt := temporal.Instant(rng.Float64() * at)
			v := r.AtInstant(tt).MustGet()
			if !rv.Contains(v) {
				t.Fatalf("case %d: r(%v) = %v not in RangeValues %v", c, tt, v, rv)
			}
			for _, e := range ends {
				if math.Abs(v-e) < 1e-6 {
					continue sample
				}
			}
			if got, want := res.Present(tt), R.Contains(v); got != want {
				t.Fatalf("case %d: At(%v, %v) defined at %v = %v, r(t) = %v ∈ R = %v", c, r, R, tt, got, v, want)
			}
		}
	}
}

func TestMLineLength(t *testing.T) {
	mk := func(px, py, qx, qy, vx, vy float64) units.MSeg {
		return units.MustMSeg(
			units.MPoint{X0: px, X1: vx, Y0: py, Y1: vy},
			units.MPoint{X0: qx, X1: vx, Y0: qy, Y1: vy},
		)
	}
	rigid := MustMLine(units.MustULine(iv(0, 10), mk(0, 0, 3, 4, 1, 0)))
	ml, ok := rigid.Length()
	if !ok || ml.AtInstant(5).MustGet() != 5 {
		t.Errorf("rigid length = %v, %v", ml, ok)
	}
	// A stretching segment: not representable.
	stretch, err := units.MSegThrough(0, geom.Pt(0, 0), geom.Pt(1, 0), 10, geom.Pt(0, 0), geom.Pt(11, 0))
	if err != nil {
		t.Fatal(err)
	}
	msl := MustMLine(units.MustULine(iv(0, 10), stretch))
	if _, ok := msl.Length(); ok {
		t.Error("stretching line length should not be representable")
	}
	if got, ok := msl.LengthAt(10); !ok || got != 11 {
		t.Errorf("LengthAt = %v, %v", got, ok)
	}
}

func TestLocations(t *testing.T) {
	p, _ := MPointFromSamples(samplesPath(
		0, 0, 0,
		10, 10, 0,
		20, 10, 0, // rest at (10, 0)
		30, 20, 0,
		40, 20, 0, // rest at (20, 0)
	))
	locs := p.Locations()
	if locs.Len() != 2 || !locs.Contains(geom.Pt(10, 0)) || !locs.Contains(geom.Pt(20, 0)) {
		t.Errorf("Locations = %v", locs)
	}
	moving, _ := MPointFromSamples(samplesPath(0, 0, 0, 10, 10, 0))
	if !moving.Locations().IsEmpty() {
		t.Error("never-resting point has locations")
	}
}

func TestMIntAggregates(t *testing.T) {
	b := MustMInt(
		units.UInt{Iv: rho(0, 5), V: 2},
		units.UInt{Iv: rho(5, 8), V: 5},
		units.UInt{Iv: iv(9, 12), V: 2},
	)
	if mn, ok := b.Min(); !ok || mn != 2 {
		t.Errorf("Min = %v, %v", mn, ok)
	}
	if mx, ok := b.Max(); !ok || mx != 5 {
		t.Errorf("Max = %v, %v", mx, ok)
	}
	var empty MInt
	if _, ok := empty.Min(); ok {
		t.Error("empty Min")
	}
}

func TestAtPoints(t *testing.T) {
	p, _ := MPointFromSamples(samplesPath(0, 0, 0, 10, 10, 0, 20, 10, 10))
	ps := spatial.NewPoints(geom.Pt(5, 0), geom.Pt(10, 5), geom.Pt(99, 99))
	at := p.AtPoints(ps)
	if at.M.Len() != 2 {
		t.Fatalf("AtPoints = %v", at)
	}
	if !at.Present(5) || !at.Present(15) || at.Present(10) {
		t.Errorf("AtPoints deftime = %v", at.DefTime())
	}
	if got := at.AtInstant(15); got.P != geom.Pt(10, 5) {
		t.Errorf("position at 15 = %v", got)
	}
}
