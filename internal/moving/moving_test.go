package moving

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

func iv(s, e float64) temporal.Interval {
	return temporal.Closed(temporal.Instant(s), temporal.Instant(e))
}

func rho(s, e float64) temporal.Interval {
	return temporal.RightHalfOpen(temporal.Instant(s), temporal.Instant(e))
}

func samplesPath(coords ...float64) []Sample {
	// samplesPath(t0,x0,y0, t1,x1,y1, ...)
	var out []Sample
	for i := 0; i+2 < len(coords); i += 3 {
		out = append(out, Sample{T: temporal.Instant(coords[i]), P: geom.Pt(coords[i+1], coords[i+2])})
	}
	return out
}

func TestMPointFromSamples(t *testing.T) {
	p, err := MPointFromSamples(samplesPath(
		0, 0, 0,
		10, 10, 0,
		20, 10, 10,
	))
	if err != nil {
		t.Fatal(err)
	}
	if p.M.Len() != 2 {
		t.Fatalf("units = %d", p.M.Len())
	}
	if got := p.AtInstant(5); !got.Defined() || got.P != geom.Pt(5, 0) {
		t.Errorf("AtInstant(5) = %v", got)
	}
	if got := p.AtInstant(15); !got.Defined() || got.P != geom.Pt(10, 5) {
		t.Errorf("AtInstant(15) = %v", got)
	}
	if got := p.AtInstant(20); !got.Defined() || got.P != geom.Pt(10, 10) {
		t.Errorf("AtInstant(20) = %v (final sample must be included)", got)
	}
	if got := p.AtInstant(21); got.Defined() {
		t.Error("defined beyond last sample")
	}
	if _, err := MPointFromSamples(samplesPath(0, 0, 0)); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := MPointFromSamples(samplesPath(5, 0, 0, 3, 1, 1)); err == nil {
		t.Error("out-of-order samples accepted")
	}
}

func TestMPointTrajectoryAndLength(t *testing.T) {
	p, _ := MPointFromSamples(samplesPath(
		0, 0, 0,
		10, 10, 0,
		20, 10, 10,
		30, 10, 10, // rest
		40, 20, 10,
	))
	tr := p.Trajectory()
	if tr.NumSegments() != 3 {
		t.Fatalf("trajectory = %v", tr)
	}
	if got := p.Length(); got != 30 {
		t.Errorf("Length = %v", got)
	}
	// Backtracking path: trajectory merges the doubled stretch.
	q, _ := MPointFromSamples(samplesPath(
		0, 0, 0,
		10, 10, 0,
		20, 0, 0,
	))
	tr = q.Trajectory()
	if tr.NumSegments() != 1 || tr.Length() != 10 {
		t.Errorf("backtrack trajectory = %v", tr)
	}
}

func TestMPointDistance(t *testing.T) {
	p, _ := MPointFromSamples(samplesPath(0, 0, 0, 10, 10, 0))
	q, _ := MPointFromSamples(samplesPath(0, 0, 5, 10, 10, 5))
	d := p.Distance(q)
	if got := d.AtInstant(4); !got.Defined() || got.MustGet() != 5 {
		t.Errorf("constant distance = %v", got)
	}
	// Partially overlapping deftimes.
	r, _ := MPointFromSamples(samplesPath(5, 5, 0, 15, 15, 0))
	d2 := p.Distance(r)
	if !d2.DefTime().Equal(temporal.MustPeriods(iv(5, 10))) {
		t.Errorf("distance deftime = %v", d2.DefTime())
	}
	if got := d2.AtInstant(7); !got.Defined() || got.MustGet() != 0 {
		t.Errorf("coinciding distance = %v", got)
	}
	if got := d2.AtInstant(3); got.Defined() {
		t.Error("distance defined outside common deftime")
	}
}

func TestSpatioTemporalJoinIdiom(t *testing.T) {
	// The Section 2 query: val(initial(atmin(distance(p, q)))) < 0.5.
	p, _ := MPointFromSamples(samplesPath(0, 0, 0, 10, 10, 10))
	q, _ := MPointFromSamples(samplesPath(0, 10, 0, 10, 0, 10))
	d := p.Distance(q)
	mn := d.AtMin()
	first, ok := mn.Initial()
	if !ok {
		t.Fatal("no initial")
	}
	if first.Inst != 5 || math.Abs(first.Val) > 1e-9 {
		t.Errorf("closest approach = %v at %v", first.Val, first.Inst)
	}
	// And a pair that never gets close:
	r, _ := MPointFromSamples(samplesPath(0, 100, 100, 10, 110, 100))
	d2 := p.Distance(r)
	mn2 := d2.AtMin()
	v2, ok := mn2.Initial()
	if !ok || v2.Val < 100 {
		t.Errorf("min distance = %v", v2.Val)
	}
}

func TestMPointSpeedAndPasses(t *testing.T) {
	p, _ := MPointFromSamples(samplesPath(0, 0, 0, 10, 30, 40, 20, 30, 40))
	sp := p.Speed()
	if got := sp.AtInstant(5); got.MustGet() != 5 {
		t.Errorf("speed = %v", got)
	}
	if got := sp.AtInstant(15); got.MustGet() != 0 {
		t.Errorf("resting speed = %v", got)
	}
	if !p.Passes(geom.Pt(15, 20)) || p.Passes(geom.Pt(15, 21)) {
		t.Error("Passes wrong")
	}
	at := p.At(geom.Pt(15, 20))
	if at.M.Len() != 1 || !at.M.Units()[0].Iv.IsDegenerate() {
		t.Errorf("At = %v", at)
	}
	if got := at.AtInstant(5); !got.Defined() || got.P != geom.Pt(15, 20) {
		t.Errorf("At instant = %v", got)
	}
	// At a resting position: whole resting unit survives.
	atRest := p.At(geom.Pt(30, 40))
	if atRest.M.IsEmpty() {
		t.Fatal("rest position lost")
	}
	if !atRest.DefTime().Contains(15) {
		t.Errorf("rest deftime = %v", atRest.DefTime())
	}
}

func TestMBoolAlgebra(t *testing.T) {
	a := MustMBool(units.UBool{Iv: rho(0, 5), V: true}, units.UBool{Iv: rho(5, 10), V: false})
	not := a.Not()
	if not.AtInstant(1).MustGet() || !not.AtInstant(7).MustGet() {
		t.Error("not wrong")
	}
	wt := a.WhenTrue()
	if !wt.Equal(temporal.MustPeriods(rho(0, 5))) {
		t.Errorf("WhenTrue = %v", wt)
	}
}

func TestMRealComparisonsAndAt(t *testing.T) {
	// Distance-like parabola: (t−5)² on [0,10].
	r := MustMReal(units.NewUReal(iv(0, 10), 1, -10, 25, false))
	lt := r.Less(4) // (t−5)² < 4 ⟺ 3 < t < 7
	wt := lt.WhenTrue()
	if wt.Len() != 1 {
		t.Fatalf("WhenTrue = %v", wt)
	}
	got := wt.Intervals()[0]
	if got.Start != 3 || got.End != 7 || got.LC || got.RC {
		t.Errorf("less-than interval = %v, want (3, 7)", got)
	}
	gt := r.Greater(4)
	if !gt.WhenTrue().Contains(1) || gt.WhenTrue().Contains(5) || gt.WhenTrue().Contains(3) {
		t.Errorf("greater = %v", gt.WhenTrue())
	}
}

func TestMRealMinMaxAtMin(t *testing.T) {
	r := MustMReal(
		units.NewUReal(rho(0, 5), 0, 1, 0, false),    // t: 0→5
		units.NewUReal(rho(5, 10), 0, -1, 10, false), // 10−t: 5→0
	)
	mn, _, ok := r.Min()
	if !ok || mn != 0 {
		t.Errorf("Min = %v", mn)
	}
	mx, at, _ := r.Max()
	if mx != 5 || at != 5 {
		t.Errorf("Max = %v at %v", mx, at)
	}
	am := r.AtMin()
	// Minimum 0 attained at t=0 only (t=10 is excluded by [5,10)).
	if am.M.Len() != 1 || am.M.Units()[0].Iv != temporal.AtInstant(0) {
		t.Errorf("AtMin = %v", am)
	}
	// Integral of the tent function: 2·(25/2) = 25.
	if got := r.Integral(); math.Abs(got-25) > 1e-9 {
		t.Errorf("Integral = %v", got)
	}
}

// TestMRealExtremaUnbounded pins the extrema at an infinite end of the
// definition time, where Eval is NaN: the limit counts, a finite one is
// the answer, and an infinite one is ⊥ (±∞ is no real value). The fused
// area fold answers the same for a region at rest forever. At a finite
// instant, a value that overflows to ±∞ makes the extremum ⊥ too, and a
// NaN one (t² and 1e300·t overflowing with opposite signs) is passed
// over.
func TestMRealExtremaUnbounded(t *testing.T) {
	forever := temporal.Open(temporal.NegInf, temporal.PosInf)
	constant := MustMReal(units.ConstUReal(forever, 1600))
	if mx, _, ok := constant.Max(); !ok || mx != 1600 {
		t.Errorf("max of 1600 over %v = %v, %v; want 1600", forever, mx, ok)
	}
	if mn, _, ok := constant.Min(); !ok || mn != 1600 {
		t.Errorf("min of 1600 over %v = %v, %v; want 1600", forever, mn, ok)
	}
	hill := MustMReal(units.NewUReal(temporal.RightHalfOpen(0, temporal.PosInf), -1, 0, 5, false))
	if mx, at, ok := hill.Max(); !ok || mx != 5 || at != 0 {
		t.Errorf("max of −t² + 5 over [0, +∞) = %v at %v, %v; want 5 at 0", mx, at, ok)
	}
	if mn, _, ok := hill.Min(); ok {
		t.Errorf("min of −t² + 5 over [0, +∞) = %v, want ⊥", mn)
	}
	if am := hill.AtMin(); !am.M.IsEmpty() {
		t.Errorf("atmin of −t² + 5 over [0, +∞) = %v, want empty", am)
	}
	square := spatial.MustRegion(spatial.MustFace(spatial.MustCycle(
		geom.Pt(0, 0), geom.Pt(40, 0), geom.Pt(40, 40), geom.Pt(0, 40))))
	storm := StaticMRegion(square, forever)
	for name, fold := range map[string]func(context.Context) (float64, bool, error){
		"max": storm.AreaMaxCtx, "min": storm.AreaMinCtx,
	} {
		if v, ok, err := fold(context.Background()); err != nil || !ok || v != 1600 {
			t.Errorf("%s(area) of a 40 × 40 square at rest over %v = %v, %v, %v; want 1600", name, forever, v, ok, err)
		}
	}
	steep := MustMReal(units.NewUReal(iv(0, 1e10), 1e300, 0, 0, false))
	if mx, _, ok := steep.Max(); ok {
		t.Errorf("max of 1e300·t² over [0, 1e10] = %v, want ⊥", mx)
	}
	if mn, at, ok := steep.Min(); !ok || mn != 0 || at != 0 {
		t.Errorf("min of 1e300·t² over [0, 1e10] = %v at %v, %v; want 0 at 0", mn, at, ok)
	}
	opposed := MustMReal(units.NewUReal(iv(-1e200, 0), 1, 1e300, 7, false))
	if mx, at, ok := opposed.Max(); !ok || mx != 7 || at != 0 {
		t.Errorf("max of t² + 1e300·t + 7 over [-1e200, 0] = %v at %v, %v; want 7 at 0", mx, at, ok)
	}
}

func TestMRegionAtInstant(t *testing.T) {
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
	mr := MustMRegion(
		units.MustURegion(rho(0, 10), units.MFace{Outer: translate(sq(0, 0, 4), 1, 0)}),
		units.MustURegion(iv(10, 20), units.MFace{Outer: translate(sq(10, 0, 4), 0, 1)}),
	)
	r, ok := mr.AtInstant(5)
	if !ok || r.Area() != 16 {
		t.Fatalf("AtInstant(5) = %v, %v", r, ok)
	}
	if !r.ContainsPoint(geom.Pt(7, 2)) {
		t.Error("snapshot misplaced")
	}
	if _, ok := mr.AtInstant(25); ok {
		t.Error("defined beyond deftime")
	}
	if !mr.DefTime().Equal(temporal.MustPeriods(iv(0, 20))) {
		t.Errorf("DefTime = %v", mr.DefTime())
	}
}

func TestMRegionArea(t *testing.T) {
	// A square growing linearly from side 2 to side 6 over [0,4]: area
	// (2+t)² = t²+4t+4.
	ring0 := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2)}
	ring1 := []geom.Point{geom.Pt(-2, -2), geom.Pt(4, -2), geom.Pt(4, 4), geom.Pt(-2, 4)}
	var mc units.MCycle
	for i := range ring0 {
		m, err := units.MPointThrough(0, ring0[i], 4, ring1[i])
		if err != nil {
			t.Fatal(err)
		}
		mc = append(mc, m)
	}
	mr := MustMRegion(units.MustURegion(iv(0, 4), units.MFace{Outer: mc}))
	area := mr.Area()
	for _, tt := range []float64{0, 1, 2, 3, 4} {
		want := (2 + tt) * (2 + tt)
		if got := area.AtInstant(temporal.Instant(tt)).MustGet(); math.Abs(got-want) > 1e-9 {
			t.Errorf("area(%v) = %v, want %v", tt, got, want)
		}
	}
	// Cross-check against the snapshot's own area.
	snap, _ := mr.AtInstant(1.5)
	if got := area.AtInstant(1.5).MustGet(); math.Abs(got-snap.Area()) > 1e-9 {
		t.Errorf("lifted area %v != snapshot area %v", got, snap.Area())
	}
}

func TestMRegionPerimeter(t *testing.T) {
	sq := []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4)}
	var mc units.MCycle
	for _, p := range sq {
		mc = append(mc, units.MPoint{X0: p.X, X1: 2, Y0: p.Y, Y1: 0}) // rigid translation
	}
	mr := MustMRegion(units.MustURegion(iv(0, 10), units.MFace{Outer: mc}))
	per, ok := mr.Perimeter()
	if !ok {
		t.Fatal("rigid translation perimeter not representable")
	}
	if got := per.AtInstant(3).MustGet(); got != 16 {
		t.Errorf("perimeter = %v", got)
	}
	// A growing square: per-unit perimeter is not a single ureal.
	ring1 := []geom.Point{geom.Pt(-2, -2), geom.Pt(6, -2), geom.Pt(6, 6), geom.Pt(-2, 6)}
	var grow units.MCycle
	for i := range sq {
		m, _ := units.MPointThrough(0, sq[i], 4, ring1[i])
		grow = append(grow, m)
	}
	mg := MustMRegion(units.MustURegion(iv(0, 4), units.MFace{Outer: grow}))
	if _, ok := mg.Perimeter(); ok {
		t.Error("growing square perimeter should not be representable")
	}
	if got, ok := mg.PerimeterAt(4); !ok || got != 32 {
		t.Errorf("PerimeterAt(4) = %v, %v", got, ok)
	}
}

func TestInsideEndToEnd(t *testing.T) {
	// Section 5.2 end-to-end: flight through a moving storm.
	storm := func(x float64) units.MCycle {
		ring := []geom.Point{geom.Pt(x, -10), geom.Pt(x+20, -10), geom.Pt(x+20, 10), geom.Pt(x, 10)}
		var mc units.MCycle
		for _, p := range ring {
			mc = append(mc, units.MPoint{X0: p.X, X1: 1, Y0: p.Y, Y1: 0})
		}
		return mc
	}
	mr := MustMRegion(units.MustURegion(iv(0, 100), units.MFace{Outer: storm(40)}))
	// Plane from x=0 to x=200 at double speed: enters the storm region
	// [40+t, 60+t] when 2t = 40+t → t=40; leaves when 2t = 60+t → t=60.
	p, _ := MPointFromSamples(samplesPath(0, 0, 0, 100, 200, 0))
	inside := p.Inside(mr)
	wt := inside.WhenTrue()
	if wt.Len() != 1 {
		t.Fatalf("WhenTrue = %v", wt)
	}
	got := wt.Intervals()[0]
	if got.Start != 40 || got.End != 60 {
		t.Errorf("inside period = %v, want [40, 60]", got)
	}
	// Restricting the flight to the storm: When.
	during := p.When(inside)
	if pos := during.AtInstant(50); !pos.Defined() || pos.P != geom.Pt(100, 0) {
		t.Errorf("restricted position = %v", pos)
	}
	if during.Present(30) {
		t.Error("restricted point defined outside storm time")
	}
	// InsideRegion with the storm's snapshot at t=0 (static).
	snap, _ := mr.AtInstant(0)
	insStatic := p.InsideRegion(snap)
	wt2 := insStatic.WhenTrue()
	if wt2.Len() != 1 {
		t.Fatalf("static WhenTrue = %v", wt2)
	}
	// Static region spans x ∈ [40, 60]: plane inside for t ∈ [20, 30].
	if got := wt2.Intervals()[0]; got.Start != 20 || got.End != 30 {
		t.Errorf("static inside = %v", got)
	}
}

func TestMPointsAndMLine(t *testing.T) {
	a := units.MPoint{X0: 0, X1: 1, Y0: 0, Y1: 0}
	b := units.MPoint{X0: 0, X1: 1, Y0: 5, Y1: 0}
	mp := MustMPoints(units.MustUPoints(iv(0, 10), a, b))
	ps, ok := mp.AtInstant(4)
	if !ok || ps.Len() != 2 || !ps.Contains(geom.Pt(4, 0)) {
		t.Errorf("MPoints AtInstant = %v, %v", ps, ok)
	}
	tr := mp.Trajectory()
	if tr.NumSegments() != 2 {
		t.Errorf("MPoints trajectory = %v", tr)
	}

	g := units.MustMSeg(a, b) // vertical segment translating right
	ml := MustMLine(units.MustULine(iv(0, 10), g))
	line, ok := ml.AtInstant(2)
	if !ok || line.NumSegments() != 1 {
		t.Fatalf("MLine AtInstant = %v, %v", line, ok)
	}
	if !line.ContainsPoint(geom.Pt(2, 3)) {
		t.Error("MLine snapshot wrong")
	}
	if l, ok := ml.LengthAt(5); !ok || l != 5 {
		t.Errorf("LengthAt = %v, %v", l, ok)
	}
}

func TestStaticMRegion(t *testing.T) {
	reg := spatial.MustPolygonRegion(spatial.Ring(0, 0, 4, 0, 4, 4, 0, 4), spatial.Ring(1, 1, 2, 1, 2, 2, 1, 2))
	mr := StaticMRegion(reg, iv(0, 100))
	snap, ok := mr.AtInstant(50)
	if !ok {
		t.Fatal("static region undefined")
	}
	if snap.Area() != reg.Area() || snap.NumCycles() != 2 {
		t.Errorf("snapshot = %v", snap)
	}
	area := mr.Area()
	if got := area.AtInstant(7).MustGet(); math.Abs(got-15) > 1e-9 {
		t.Errorf("area = %v", got)
	}
}

func TestMRegionAtPeriods(t *testing.T) {
	sqr := func(x, y, w float64) []geom.Point {
		return []geom.Point{geom.Pt(x, y), geom.Pt(x+w, y), geom.Pt(x+w, y+w), geom.Pt(x, y+w)}
	}
	var mc units.MCycle
	for _, p := range sqr(0, 0, 4) {
		mc = append(mc, units.MPoint{X0: p.X, X1: 1, Y0: p.Y})
	}
	mr := MustMRegion(units.MustURegion(iv(0, 100), units.MFace{Outer: mc}))
	clipped := mr.AtPeriods(temporal.MustPeriods(iv(10, 20), iv(50, 60)))
	if clipped.M.Len() != 2 {
		t.Fatalf("clipped units = %d", clipped.M.Len())
	}
	if clipped.Present(30) || !clipped.Present(15) {
		t.Error("clip deftime wrong")
	}
	// Snapshots inside the clip agree with the original.
	a, _ := mr.AtInstant(55)
	b, ok := clipped.AtInstant(55)
	if !ok || a.Area() != b.Area() || !a.Equal(b) {
		t.Error("clipped snapshot differs")
	}
	// Degenerate clip: a single instant.
	deg := mr.AtPeriods(temporal.MustPeriods(temporal.AtInstant(42)))
	if deg.M.Len() != 1 || !deg.M.Units()[0].Iv.IsDegenerate() {
		t.Fatalf("degenerate clip = %v", deg.M.Intervals())
	}
	snap, ok := deg.AtInstant(42)
	if !ok || snap.Area() != 16 {
		t.Errorf("degenerate snapshot = %v, %v", snap, ok)
	}
}

func TestMBoolWhenTrueClosureMerge(t *testing.T) {
	// Adjacent true pieces with different closures merge in the period
	// set even though they are distinct units.
	b := MustMBool(
		units.UBool{Iv: rho(0, 2), V: true},
		units.UBool{Iv: iv(2, 4), V: false},
		units.UBool{Iv: temporal.MustInterval(4, 6, false, true), V: true},
	)
	wt := b.WhenTrue()
	if wt.Len() != 2 {
		t.Fatalf("WhenTrue = %v", wt)
	}
	if wt.Contains(2) || wt.Contains(4) || !wt.Contains(1) || !wt.Contains(5) {
		t.Error("closure handling wrong")
	}
}

func TestInsideMovingEye(t *testing.T) {
	// A region whose hole (the eye) moves with it: a point that stays in
	// the eye is never inside; a point crossing annulus–eye–annulus
	// flips accordingly.
	sqr := func(x, y, w float64) []geom.Point {
		return []geom.Point{geom.Pt(x, y), geom.Pt(x+w, y), geom.Pt(x+w, y+w), geom.Pt(x, y+w)}
	}
	translate := func(ring []geom.Point, vx float64) units.MCycle {
		var mc units.MCycle
		for _, p := range ring {
			mc = append(mc, units.MPoint{X0: p.X, X1: vx, Y0: p.Y})
		}
		return mc
	}
	storm := MustMRegion(units.MustURegion(iv(0, 100), units.MFace{
		Outer: translate(sqr(0, 0, 20), 1),
		Holes: []units.MCycle{translate(sqr(8, 8, 4), 1)},
	}))
	// Rider moving with the eye, starting at its center.
	rider := MustMPoint(units.UPoint{Iv: iv(0, 100), M: units.MPoint{X0: 10, X1: 1, Y0: 10}})
	if rider.Inside(storm).Sometimes() {
		t.Error("eye rider reported inside")
	}
	// A faster point overtakes the storm: outside → annulus → eye →
	// annulus → outside.
	runner := MustMPoint(units.UPoint{Iv: iv(0, 100), M: units.MPoint{X0: -50, X1: 2, Y0: 10}})
	inside := runner.Inside(storm)
	wt := inside.WhenTrue()
	if wt.Len() != 2 {
		t.Fatalf("annulus passes = %v", wt)
	}
	// Runner at −50+2t, storm spans [t, 20+t], eye [8+t, 12+t]:
	// enter outer at t=50, enter eye at t=58, exit eye at t=62, exit
	// outer at t=70.
	first, second := wt.Intervals()[0], wt.Intervals()[1]
	if first.Start != 50 || first.End != 58 || second.Start != 62 || second.End != 70 {
		t.Errorf("passes = %v and %v", first, second)
	}
}

func TestInsideStaticVsLiftedConsistency(t *testing.T) {
	// inside(mpoint, region) and inside(mpoint, static mregion) are two
	// paths to the same semantics; their true-period sets must agree for
	// random trajectories and polygons.
	zone := spatial.MustPolygonRegion(
		spatial.Ring(200, 200, 700, 150, 800, 600, 450, 800, 150, 650),
		spatial.Ring(350, 350, 500, 350, 500, 500, 350, 500),
	)
	lifted := StaticMRegion(zone, iv(0, 1000))
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var samples []Sample
		pos := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		samples = append(samples, Sample{T: 0, P: pos})
		for i := 1; i <= 40; i++ {
			pos = pos.Add(geom.Pt(rng.Float64()*60-30, rng.Float64()*60-30))
			samples = append(samples, Sample{T: temporal.Instant(i * 25), P: pos})
		}
		p, err := MPointFromSamples(samples)
		if err != nil {
			t.Fatal(err)
		}
		a := p.InsideRegion(zone).WhenTrue()
		b := p.Inside(lifted).WhenTrue()
		if abs := a.Duration() - b.Duration(); abs > 1e-6 && -abs > 1e-6 {
			t.Fatalf("seed %d: durations differ: %v vs %v", seed, a.Duration(), b.Duration())
		}
		for k := 0; k <= 1000; k++ {
			tt := temporal.Instant(float64(k) + 0.41)
			if a.Contains(tt) != b.Contains(tt) {
				t.Fatalf("seed %d t=%v: static %v vs lifted %v", seed, tt, a.Contains(tt), b.Contains(tt))
			}
		}
	}
}
