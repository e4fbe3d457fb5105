package storage

import (
	"bytes"
	"errors"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/moving"
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

func TestPointRoundTrip(t *testing.T) {
	for _, p := range []spatial.Point{spatial.DefPoint(geom.Pt(1.5, -2.25)), spatial.UndefPoint()} {
		e := EncodePoint(p)
		got, err := DecodePoint(e)
		if err != nil {
			t.Fatal(err)
		}
		if got != p {
			t.Errorf("round trip: %v != %v", got, p)
		}
	}
}

func TestPointsRoundTrip(t *testing.T) {
	ps := spatial.NewPoints(geom.Pt(3, 1), geom.Pt(-1, 2), geom.Pt(0, 0))
	e := EncodePoints(ps)
	got, err := DecodePoints(e)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ps) {
		t.Errorf("round trip: %v != %v", got, ps)
	}
	// Representation equality: identical values encode identically.
	e2 := EncodePoints(spatial.NewPoints(geom.Pt(0, 0), geom.Pt(-1, 2), geom.Pt(3, 1)))
	if !bytes.Equal(e.Flatten(), e2.Flatten()) {
		t.Error("canonical order violated: same set, different bytes")
	}
	// Points stored out of order, or repeated, are rejected: one value,
	// one encoding.
	for _, pts := range [][]geom.Point{{geom.Pt(3, 1), geom.Pt(-1, 2)}, {geom.Pt(0, 0), geom.Pt(0, 0)}} {
		var root, arr writer
		root.u32(uint32(len(pts)))
		for _, p := range pts {
			arr.f64(p.X)
			arr.f64(p.Y)
		}
		if _, err := DecodePoints(Encoded{Root: root.buf, Arrays: [][]byte{arr.buf}}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("points %v accepted", pts)
		}
	}
}

func TestLineRoundTrip(t *testing.T) {
	l := spatial.MustLine(geom.Seg(0, 0, 2, 2), geom.Seg(0, 2, 2, 0), geom.Seg(5, 5, 6, 5))
	e := EncodeLine(l)
	got, err := DecodeLine(e)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(l) {
		t.Errorf("round trip failed")
	}
	if got.Length() != l.Length() || got.BBox() != l.BBox() {
		t.Error("summary data differs after round trip")
	}
	// Empty line.
	var empty spatial.Line
	got, err = DecodeLine(EncodeLine(empty))
	if err != nil || !got.IsEmpty() {
		t.Errorf("empty line round trip: %v, %v", got, err)
	}
}

func TestRegionRoundTrip(t *testing.T) {
	r := spatial.MustPolygonRegion(
		spatial.Ring(0, 0, 10, 0, 10, 10, 0, 10),
		spatial.Ring(2, 2, 4, 2, 4, 4, 2, 4),
		spatial.Ring(6, 6, 8, 6, 8, 8, 6, 8),
	)
	e := EncodeRegion(r)
	if len(e.Arrays) != 4 {
		t.Fatalf("region arrays = %d", len(e.Arrays))
	}
	got, err := DecodeRegion(e)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Errorf("round trip failed:\n%v\n%v", got, r)
	}
	if got.Area() != r.Area() || got.NumCycles() != 3 {
		t.Error("summary mismatch")
	}
}

func TestRegionMultiFaceRoundTrip(t *testing.T) {
	f1 := spatial.MustFace(spatial.MustCycle(spatial.Ring(0, 0, 4, 0, 4, 4, 0, 4)...))
	f2 := spatial.MustFace(
		spatial.MustCycle(spatial.Ring(10, 10, 20, 10, 20, 20, 10, 20)...),
		spatial.MustCycle(spatial.Ring(12, 12, 14, 12, 14, 14, 12, 14)...),
	)
	r := spatial.MustRegion(f1, f2)
	got, err := DecodeRegion(EncodeRegion(r))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Error("multi-face round trip failed")
	}
}

func TestRegionDecodeRejectsCorruption(t *testing.T) {
	r := spatial.MustPolygonRegion(spatial.Ring(0, 0, 4, 0, 4, 4, 0, 4))
	e := EncodeRegion(r)
	// Flip a halfsegment coordinate: consistency check must fire.
	bad := Encoded{Root: e.Root, Arrays: [][]byte{append([]byte(nil), e.Arrays[0]...), e.Arrays[1], e.Arrays[2], e.Arrays[3]}}
	bad.Arrays[0][3] ^= 0xFF
	if _, err := DecodeRegion(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted halfsegments accepted: %v", err)
	}
	// Truncated root.
	if _, err := DecodeRegion(Encoded{Root: e.Root[:3], Arrays: e.Arrays}); !errors.Is(err, ErrCorrupt) {
		t.Error("truncated root accepted")
	}
}

func TestPeriodsRoundTrip(t *testing.T) {
	p := temporal.MustPeriods(rho(0, 2), iv(5, 9))
	got, err := DecodePeriods(EncodePeriods(p))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Errorf("round trip: %v != %v", got, p)
	}
	// Non-canonical bytes are rejected.
	var arr writer
	writeInterval(&arr, iv(0, 2))
	writeInterval(&arr, iv(1, 3)) // overlaps
	var root writer
	root.u32(2)
	if _, err := DecodePeriods(Encoded{Root: root.buf, Arrays: [][]byte{arr.buf}}); !errors.Is(err, ErrCorrupt) {
		t.Error("non-canonical periods accepted")
	}
	// So are canonical intervals stored out of order: one value, one
	// encoding.
	arr = writer{}
	writeInterval(&arr, iv(3, 4))
	writeInterval(&arr, iv(0, 1))
	if _, err := DecodePeriods(Encoded{Root: root.buf, Arrays: [][]byte{arr.buf}}); !errors.Is(err, ErrCorrupt) {
		t.Error("periods stored out of order accepted")
	}
}

func TestMBoolMIntMStringRoundTrip(t *testing.T) {
	mb := moving.MustMBool(units.UBool{Iv: rho(0, 5), V: true}, units.UBool{Iv: rho(5, 9), V: false})
	gotB, err := DecodeMBool(EncodeMBool(mb))
	if err != nil {
		t.Fatal(err)
	}
	if gotB.M.Len() != 2 || !gotB.AtInstant(1).MustGet() || gotB.AtInstant(6).MustGet() {
		t.Error("mbool round trip failed")
	}

	mi := moving.MustMInt(units.UInt{Iv: rho(0, 5), V: 42}, units.UInt{Iv: rho(5, 9), V: -7})
	gotI, err := DecodeMInt(EncodeMInt(mi))
	if err != nil {
		t.Fatal(err)
	}
	if gotI.AtInstant(6).MustGet() != -7 {
		t.Error("mint round trip failed")
	}

	ms, err := moving.NewMString(units.UString{Iv: rho(0, 5), V: "boarding"}, units.UString{Iv: rho(5, 9), V: "airborne"})
	if err != nil {
		t.Fatal(err)
	}
	gotS, err := DecodeMString(EncodeMString(ms))
	if err != nil {
		t.Fatal(err)
	}
	if gotS.AtInstant(7).MustGet() != "airborne" {
		t.Error("mstring round trip failed")
	}
}

func TestMRealMPointRoundTrip(t *testing.T) {
	mr := moving.MustMReal(
		units.NewUReal(rho(0, 5), 1, -2, 3, false),
		units.NewUReal(iv(5, 9), 0, 0, 16, true),
	)
	got, err := DecodeMReal(EncodeMReal(mr))
	if err != nil {
		t.Fatal(err)
	}
	if got.AtInstant(7).MustGet() != 4 {
		t.Error("mreal round trip failed")
	}

	mp, err := moving.MPointFromSamples([]moving.Sample{
		{T: 0, P: geom.Pt(0, 0)}, {T: 10, P: geom.Pt(10, 0)}, {T: 20, P: geom.Pt(10, 10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	gotP, err := DecodeMPoint(EncodeMPoint(mp))
	if err != nil {
		t.Fatal(err)
	}
	if gotP.M.Len() != 2 || gotP.AtInstant(15).P != geom.Pt(10, 5) {
		t.Error("mpoint round trip failed")
	}
}

func TestMPointsRoundTripFigure7(t *testing.T) {
	a := units.MPoint{X0: 0, X1: 1, Y0: 0, Y1: 0}
	b := units.MPoint{X0: 0, X1: 1, Y0: 5, Y1: 0}
	c := units.MPoint{X0: 9, X1: 0, Y0: 9, Y1: 0}
	m := moving.MustMPoints(
		units.MustUPoints(rho(0, 5), a, b),
		units.MustUPoints(iv(5, 9), a, b, c),
	)
	e := EncodeMPoints(m)
	// Figure 7: one units array plus one shared subarray.
	if len(e.Arrays) != 2 {
		t.Fatalf("arrays = %d", len(e.Arrays))
	}
	got, err := DecodeMPoints(e)
	if err != nil {
		t.Fatal(err)
	}
	ps, ok := got.AtInstant(7)
	if !ok || ps.Len() != 3 {
		t.Errorf("round trip AtInstant = %v, %v", ps, ok)
	}
}

func TestMRegionRoundTrip(t *testing.T) {
	ring := []geom.Point{geom.Pt(0, 0), geom.Pt(8, 0), geom.Pt(8, 8), geom.Pt(0, 8)}
	hole := []geom.Point{geom.Pt(2, 2), geom.Pt(4, 2), geom.Pt(4, 4), geom.Pt(2, 4)}
	mc := func(ring []geom.Point, vx float64) units.MCycle {
		var out units.MCycle
		for _, p := range ring {
			out = append(out, units.MPoint{X0: p.X, X1: vx, Y0: p.Y})
		}
		return out
	}
	m := moving.MustMRegion(
		units.MustURegion(rho(0, 5), units.MFace{Outer: mc(ring, 1), Holes: []units.MCycle{mc(hole, 1)}}),
		units.MustURegion(iv(5, 9), units.MFace{Outer: mc(ring, -1)}),
	)
	e := EncodeMRegion(m)
	if len(e.Arrays) != 4 {
		t.Fatalf("arrays = %d", len(e.Arrays))
	}
	got, err := DecodeMRegion(e)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := got.AtInstant(2)
	if !ok || snap.NumCycles() != 2 {
		t.Fatalf("decoded snapshot = %v, %v", snap, ok)
	}
	if snap.Area() != 64-4 {
		t.Errorf("area = %v", snap.Area())
	}
	snap2, ok := got.AtInstant(7)
	if !ok || snap2.NumCycles() != 1 {
		t.Error("second unit lost")
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	r := spatial.MustPolygonRegion(spatial.Ring(0, 0, 4, 0, 4, 4, 0, 4))
	e := EncodeRegion(r)
	flat := e.Flatten()
	back, err := Unflatten(flat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRegion(back)
	if err != nil || !got.Equal(r) {
		t.Errorf("flatten round trip failed: %v", err)
	}
	if _, err := Unflatten(flat[:5]); !errors.Is(err, ErrCorrupt) {
		t.Error("truncated flatten accepted")
	}
}

func TestEqualityByRepresentation(t *testing.T) {
	// Section 4: "two set values are equal iff their array
	// representations are equal".
	mk := func() moving.MPoint {
		p, err := moving.MPointFromSamples([]moving.Sample{
			{T: 0, P: geom.Pt(0, 0)}, {T: 10, P: geom.Pt(5, 5)}, {T: 20, P: geom.Pt(0, 10)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	e1 := EncodeMPoint(mk()).Flatten()
	e2 := EncodeMPoint(mk()).Flatten()
	if !bytes.Equal(e1, e2) {
		t.Error("equal values, different representations")
	}
}

func TestPageStoreAndFLOB(t *testing.T) {
	ps := NewPageStore()
	big := make([]byte, 3*PageSize+100)
	for i := range big {
		big[i] = byte(i)
	}
	ref := ps.Put(big)
	if ref.NumPages() != 4 {
		t.Errorf("pages = %d", ref.NumPages())
	}
	got, err := ps.Get(ref)
	if err != nil || !bytes.Equal(got, big) {
		t.Error("page store round trip failed")
	}
	if _, err := ps.Get(LOBRef{FirstPage: 100, Length: 10}); !errors.Is(err, ErrCorrupt) {
		t.Error("bad ref accepted")
	}

	// FLOB policy: small arrays inline, large external.
	small := EncodePoints(spatial.NewPoints(geom.Pt(1, 1)))
	sv := Store(ps, small)
	if sv.Inline[0] == nil {
		t.Error("small array not inline")
	}
	var pts []geom.Point
	for i := 0; i < 200; i++ {
		pts = append(pts, geom.Pt(float64(i), float64(i%7)))
	}
	large := EncodePoints(spatial.NewPoints(pts...))
	lv := Store(ps, large)
	if lv.Inline[0] != nil {
		t.Error("large array not external")
	}
	if lv.ExternalPages() == 0 {
		t.Error("no external pages recorded")
	}
	back, err := Load(ps, lv)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodePoints(back)
	if err != nil || decoded.Len() != 200 {
		t.Errorf("FLOB round trip: %v, %v", decoded.Len(), err)
	}
}

func TestStoredValueSizes(t *testing.T) {
	ps := NewPageStore()
	e := EncodePoints(spatial.NewPoints(geom.Pt(1, 1), geom.Pt(2, 2)))
	sv := Store(ps, e)
	if sv.InlineSize() <= 0 {
		t.Error("inline size not accounted")
	}
	if sv.ExternalPages() != 0 {
		t.Error("small value went external")
	}
}

func TestMLineRoundTrip(t *testing.T) {
	mk := func(px, py, qx, qy, vx, vy float64) units.MSeg {
		return units.MustMSeg(
			units.MPoint{X0: px, X1: vx, Y0: py, Y1: vy},
			units.MPoint{X0: qx, X1: vx, Y0: qy, Y1: vy},
		)
	}
	ml := moving.MustMLine(
		units.MustULine(rho(0, 5), mk(0, 0, 1, 0, 1, 0), mk(0, 3, 1, 3, 1, 0)),
		units.MustULine(iv(5, 9), mk(10, 10, 12, 10, 0, 1)),
	)
	e := EncodeMLine(ml)
	if len(e.Arrays) != 2 {
		t.Fatalf("arrays = %d", len(e.Arrays))
	}
	got, err := DecodeMLine(e)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := got.AtInstant(2)
	if !ok || l.NumSegments() != 2 {
		t.Fatalf("decoded AtInstant = %v, %v", l, ok)
	}
	if !l.ContainsPoint(geom.Pt(2.5, 3)) {
		t.Error("translated segment wrong after round trip")
	}
	l2, ok := got.AtInstant(7)
	if !ok || l2.NumSegments() != 1 {
		t.Error("second unit lost")
	}
	// Corruption: make a moving segment rotate.
	bad := Encoded{Root: e.Root, Arrays: [][]byte{e.Arrays[0], append([]byte(nil), e.Arrays[1]...)}}
	// Corrupt the Y-velocity of one endpoint motion: the moving segment
	// now rotates, which the decoder's coplanarity check must reject.
	bad.Arrays[1][31] ^= 0x41 // exponent byte of S.Y1: a large rotation
	if _, err := DecodeMLine(bad); err == nil {
		t.Error("corrupted mline accepted")
	}
}

func TestDecodeNeverPanicsOnTruncation(t *testing.T) {
	// Failure injection: every decoder must reject truncated or
	// bit-flipped encodings with an error — never panic, never return
	// silently corrupted values that fail validation later.
	//
	// An array count no input could hold: 8 bytes claiming 2^31 arrays
	// must be bounded before Unflatten allocates for them.
	if _, err := Unflatten([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("array-count bomb: %v", err)
	}
	// An array that ends inside a record must stop the record loop, not
	// spin on the short read.
	partial := make([]byte, 20)
	for name, e := range map[string]Encoded{
		"region":  {Root: make([]byte, 60), Arrays: [][]byte{nil, nil, nil, partial}},
		"mpoints": {Root: make([]byte, 4), Arrays: [][]byte{nil, partial}},
		"mline":   {Root: make([]byte, 4), Arrays: [][]byte{nil, partial}},
		"mregion": {Root: make([]byte, 4), Arrays: [][]byte{nil, nil, nil, partial}},
	} {
		if err := decodeAll(name, e); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s with a partial record: %v", name, err)
		}
	}
	g := workloadValues(t)
	for name, enc := range g {
		flat := enc.Flatten()
		for cut := 0; cut < len(flat); cut += 1 + len(flat)/37 {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic on truncation at %d: %v", name, cut, r)
					}
				}()
				e, err := Unflatten(flat[:cut])
				if err != nil {
					return // rejected at the framing layer: fine
				}
				// Hostile-input probe: an error is an acceptable outcome,
				// only a panic fails the test.
				_ = decodeAll(name, e)
			}()
		}
	}
}

// workloadValues builds one encoding per attribute type.
func workloadValues(t *testing.T) map[string]Encoded {
	t.Helper()
	mp, err := moving.MPointFromSamples([]moving.Sample{
		{T: 0, P: geom.Pt(0, 0)}, {T: 10, P: geom.Pt(5, 5)}, {T: 20, P: geom.Pt(0, 9)},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := spatial.MustPolygonRegion(spatial.Ring(0, 0, 8, 0, 8, 8, 0, 8), spatial.Ring(2, 2, 4, 2, 4, 4, 2, 4))
	a := units.MPoint{X0: 0, X1: 1}
	b := units.MPoint{X0: 0, X1: 1, Y0: 5}
	mps := moving.MustMPoints(units.MustUPoints(iv(0, 9), a, b))
	var mc units.MCycle
	for _, p := range spatial.Ring(0, 0, 8, 0, 8, 8, 0, 8) {
		mc = append(mc, units.MPoint{X0: p.X, X1: 1, Y0: p.Y})
	}
	mr := moving.MustMRegion(units.MustURegion(iv(0, 9), units.MFace{Outer: mc}))
	return map[string]Encoded{
		"points":  EncodePoints(spatial.NewPoints(geom.Pt(1, 2), geom.Pt(3, 4))),
		"line":    EncodeLine(spatial.MustLine(geom.Seg(0, 0, 1, 1), geom.Seg(2, 2, 3, 1))),
		"region":  EncodeRegion(reg),
		"periods": EncodePeriods(temporal.MustPeriods(iv(0, 2), iv(5, 7))),
		"mpoint":  EncodeMPoint(mp),
		"mpoints": EncodeMPoints(mps),
		"mregion": EncodeMRegion(mr),
		"mreal":   EncodeMReal(moving.MustMReal(units.NewUReal(iv(0, 5), 1, 2, 3, false))),
		"mbool":   EncodeMBool(moving.MustMBool(units.UBool{Iv: iv(0, 5), V: true})),
	}
}

// decodeAll dispatches one decode and reports its outcome; hostile-input
// tests only assert it returns instead of panicking.
func decodeAll(name string, e Encoded) error {
	var err error
	switch name {
	case "points":
		_, err = DecodePoints(e)
	case "line":
		_, err = DecodeLine(e)
	case "region":
		_, err = DecodeRegion(e)
	case "periods":
		_, err = DecodePeriods(e)
	case "mpoint":
		_, err = DecodeMPoint(e)
	case "mpoints":
		_, err = DecodeMPoints(e)
	case "mline":
		_, err = DecodeMLine(e)
	case "mregion":
		_, err = DecodeMRegion(e)
	case "mreal":
		_, err = DecodeMReal(e)
	case "mbool":
		_, err = DecodeMBool(e)
	}
	return err
}

func TestDecodeSurvivesBitFlips(t *testing.T) {
	g := workloadValues(t)
	rng := []int{1, 7, 13, 29, 41}
	for name, enc := range g {
		flat := enc.Flatten()
		for _, k := range rng {
			mut := append([]byte(nil), flat...)
			mut[k%len(mut)] ^= 0xA5
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic on bit flip at %d: %v", name, k%len(mut), r)
					}
				}()
				e, err := Unflatten(mut)
				if err != nil {
					return
				}
				// Hostile-input probe: an error is an acceptable outcome,
				// only a panic fails the test.
				_ = decodeAll(name, e)
			}()
		}
	}
}
