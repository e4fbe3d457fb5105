package moving_test

import (
	"math"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/mapping"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// The join walks list the unit pairs whose intervals meet by index over
// the two unit arrays. FuzzWalkPieces holds that list to the partition: the
// pairs a walk visits are the common pieces temporal.Refine cuts, in
// order, each piece a walk builds is the partition's, and a pair the
// stored boxes refuse changes nothing after it.

// decodeWalkUnits spells the unit intervals and x positions of one side
// of a walk: an ordered, pairwise disjoint array, two bytes a unit. The
// first byte holds the gap after the previous unit in half time units
// (bits 0–2), the closure flags (bits 3 and 4; a degenerate unit is
// closed, and two units never both hold a shared instant) and the x
// position on a grid of 10 (bits 5–7); the second the length in half
// time units (bits 0–2, 0 = the degenerate [t, t]) and the x velocity
// 0, 1, −1 or 2 (bits 3 and 4). Bit 0 of ends opens the first unit to
// −∞, bit 1 the last to +∞. t0 is where the first unit starts.
func decodeWalkUnits(raw []byte, ends byte, t0 temporal.Instant) (ivs []temporal.Interval, x, vx []float64) {
	end, endRC := t0, false
	for k := 0; k+1 < len(raw); k += 2 {
		gap, lc, rc := raw[k]&0x07, raw[k]&0x08 != 0, raw[k]&0x10 != 0
		length := raw[k+1] & 0x07
		start := end + temporal.Instant(gap)/2
		if length == 0 {
			lc, rc = true, true
		}
		if len(ivs) > 0 && gap == 0 && endRC && lc {
			if length == 0 {
				start += 0.5
			} else {
				lc = false
			}
		}
		ivs = append(ivs, temporal.Interval{Start: start, End: start + temporal.Instant(length)/2, LC: lc, RC: rc})
		x = append(x, 10*float64(raw[k]>>5))
		vx = append(vx, [4]float64{0, 1, -1, 2}[raw[k+1]>>3&0x03])
		end, endRC = ivs[len(ivs)-1].End, rc
	}
	if n := len(ivs); n > 0 {
		if ends&1 != 0 {
			ivs[0].Start, ivs[0].LC = temporal.NegInf, false
		}
		if ends&2 != 0 {
			ivs[n-1].End, ivs[n-1].RC = temporal.PosInf, false
		}
	}
	return ivs, x, vx
}

// walkPoint is a moving point over decoded units: unit k moves along y =
// k/64 (so that no two adjacent units are equal) from x[k] at its start.
func walkPoint(ivs []temporal.Interval, x, vx []float64) moving.MPoint {
	us := make([]units.UPoint, len(ivs))
	for k, iv := range ivs {
		x0 := x[k]
		if finite(float64(iv.Start)) {
			x0 -= vx[k] * float64(iv.Start)
		}
		us[k] = units.UPoint{Iv: iv, M: units.MPoint{X0: x0, X1: vx[k], Y0: float64(k) / 64}}
	}
	return moving.MPoint{M: mapping.Must(us...)}
}

// walkRegion is a moving region over decoded units: unit k is the
// static square of side 8 + k/64 centred on (x[k], 0).
func walkRegion(ivs []temporal.Interval, x []float64) moving.MRegion {
	us := make([]units.URegion, len(ivs))
	for k, iv := range ivs {
		h := 4 + float64(k)/128
		sq := units.MCycle{
			units.StaticMPoint(geom.Pt(x[k]-h, -h)), units.StaticMPoint(geom.Pt(x[k]+h, -h)),
			units.StaticMPoint(geom.Pt(x[k]+h, h)), units.StaticMPoint(geom.Pt(x[k]-h, h)),
		}
		us[k] = units.URegionUnchecked(iv, []units.MFace{{Outer: sq}})
	}
	return moving.MRegion{M: mapping.Must(us...)}
}

// walkVisit is one unit pair a walk visited and the piece it built for
// it, the zero Interval when the stored boxes refused the pair.
type walkVisit struct {
	a, b  int
	piece temporal.Interval
}

// checkWalkPieces holds the pairs a walk visited over the unit arrays
// with intervals ia and ib to the common pieces of their refinement
// partition: the same index pairs in the same order, all of them unless
// the walk stopped early (stopped), and then a prefix ending on a pair
// it built a piece for; every piece it built the partition's, and every
// pair it refused one refused reports the stored boxes refuse.
func checkWalkPieces(t *testing.T, walk string, got []walkVisit, ia, ib []temporal.Interval, stopped bool, refused func(a, b int) bool) {
	t.Helper()
	want := commonPieces(ia, ib)
	if len(got) > len(want) || !stopped && len(got) != len(want) || stopped && (len(got) == 0 || got[len(got)-1].piece == temporal.Interval{}) {
		t.Fatalf("%s walk visited %d pairs (stopped early: %v), the partition has %d common pieces\n visited %v\n want %v\n a %v\n b %v", walk, len(got), stopped, len(want), got, want, ia, ib)
	}
	for k, v := range got {
		w := want[k]
		if v.a != w.A || v.b != w.B {
			t.Fatalf("%s walk: pair %d is (%d, %d), the partition's is (%d, %d)\n visited %v\n want %v", walk, k, v.a, v.b, w.A, w.B, got, want)
		}
		if isRefused := v.piece == (temporal.Interval{}); isRefused != refused(v.a, v.b) {
			t.Fatalf("%s walk: pair %d (%d, %d) refused %v, but the stored boxes refuse it: %v", walk, k, v.a, v.b, isRefused, refused(v.a, v.b))
		} else if !isRefused && v.piece != w.Iv {
			t.Fatalf("%s walk: pair %d (%d, %d) has piece %v, the partition's is %v\n a %v\n b %v", walk, k, v.a, v.b, v.piece, w.Iv, ia, ib)
		}
	}
}

// commonPieces returns the pieces of Refine(ia, ib) that both sequences
// cover: what every lifted binary operation walks.
func commonPieces(ia, ib []temporal.Interval) []temporal.RefinementInterval {
	var out []temporal.RefinementInterval
	for _, ri := range temporal.Refine(ia, ib) {
		if ri.A >= 0 && ri.B >= 0 {
			out = append(out, ri)
		}
	}
	return out
}

func spans[U interface{ Interval() temporal.Interval }](us []U) []temporal.Interval {
	ivs := make([]temporal.Interval, len(us))
	for k, u := range us {
		ivs[k] = u.Interval()
	}
	return ivs
}

// addWalkSeeds adds the seed corpus of FuzzWalkPieces and
// FuzzLiftedMatchesRefine: gaps, degenerate units, the four ways two
// closures touch, long seeks, refused pairs and unbounded ends.
func addWalkSeeds(f *testing.F) {
	const lc, rc = 0x08, 0x10
	x := func(k byte) byte { return k << 5 }                                    // x position 10·k
	v1 := byte(1 << 3)                                                          // x velocity 1
	long := []byte{lc, 2, lc, 2, lc, 2, lc, 2, lc, 2, lc, 2, lc, 2, lc | rc, 2} // eight units chained over [0, 8]
	for _, s := range []struct {
		a, b []byte
		ends byte // bits 0, 1: a's unbounded ends; bits 2, 3: b's
		bt   float64
		c    float64
	}{
		{[]byte{lc, 2, 4 | lc | rc, 2}, []byte{lc | rc, 7}, 0, 0, 3},                       // a gap in a
		{[]byte{lc | rc, 7}, []byte{lc, 2, 4 | lc | rc, 2}, 0, 0, 3},                       // a gap in b
		{[]byte{lc, 4, 0, 0, rc, 4}, []byte{lc | rc, 2, 0 | lc, 0, rc, 6}, 0, 0, 1},        // degenerate units on both sides
		{[]byte{lc | rc, 4}, []byte{lc | rc, 4}, 0, 2, 1},                                  // [0,2] meets [2,4]: one shared instant
		{[]byte{lc | rc, 4}, []byte{lc, 4}, 0, 2, 1},                                       // [0,2] meets [2,4): one shared instant
		{[]byte{lc, 4}, []byte{lc | rc, 4}, 0, 2, 1},                                       // [0,2) meets [2,4]: none
		{[]byte{lc, 4}, []byte{rc, 4}, 0, 2, 1},                                            // [0,2) meets (2,4]: none
		{[]byte{lc | rc, 2}, long, 0, -6, 2},                                               // b starts many units before a: a binary-search seek
		{[]byte{lc | rc, 2}, long, 0, -2, 2},                                               // the binary search's first candidate is the answer
		{[]byte{lc | rc, 2}, []byte{lc, 1, 1 | lc, 1, 1 | lc, 1, 1 | lc, 1}, 0, -2, 2},     // units with gaps (periods that do not merge): the same seek
		{long, []byte{lc | rc, 2}, 0, 6, 2},                                                // b starts many units into a
		{[]byte{lc, 2, 7 | lc, 2, 7 | lc | rc, 2}, long, 0, 0, 2},                          // gaps in a that skip units of b
		{[]byte{x(0) | lc, 4, x(3) | lc, 4 | v1, x(1) | lc | rc, 4}, long, 0, 0, 2},        // stored boxes refuse some pairs
		{[]byte{lc, 4, lc | rc, 4}, []byte{lc, 4, lc | rc, 4}, 1 | 2<<2, 0, 2},             // unbounded ends on both sides
		{[]byte{x(2) | lc, 4, x(2) | lc | rc, 4}, []byte{lc, 4, lc | rc, 4}, 2 << 2, 0, 2}, // b unbounded, a far away
	} {
		f.Add(s.a, s.b, s.ends, s.bt, s.c)
	}
}

func FuzzWalkPieces(f *testing.F) {
	addWalkSeeds(f)
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, ends byte, bt, c float64) {
		if !(math.Abs(bt) <= 64) || math.IsNaN(c) || len(rawA) > 64 || len(rawB) > 64 {
			t.Skip()
		}
		ia, xa, va := decodeWalkUnits(rawA, ends, 0)
		ib, xb, vb := decodeWalkUnits(rawB, ends>>2, temporal.Instant(bt))
		p, q, r := walkPoint(ia, xa, va), walkPoint(ib, xb, vb), walkRegion(ib, xb)
		pb, qb, rb := p.Bounds(), q.Bounds(), r.Bounds()
		var got []walkVisit
		record := func(a, b int, piece temporal.Interval) { got = append(got, walkVisit{a, b, piece}) }

		hit := moving.SometimesInsideVisit(p, &pb, r, &rb, record)
		if want := p.Inside(r).Sometimes(); hit != want {
			t.Fatalf("inside walk answers %v, sometimes(inside) is %v\n p %v\n r %v", hit, want, p, ib)
		}
		checkWalkPieces(t, "inside", got, spans(p.M.Units()), spans(r.M.Units()), hit, func(a, b int) bool {
			return finite(pb.Mag) && !pb.Units[a].Intersects(rb.Units[b])
		})

		for _, w := range []struct {
			p, q   moving.MPoint
			pb, qb *moving.PointBounds
		}{{p, q, &pb, &qb}, {q, p, &qb, &pb}} {
			got = got[:0]
			moving.ComesWithinVisit(w.p, w.pb, w.q, w.qb, c, record)
			limit := math.Max(c, 0)
			limit += moving.WithinMargin * (1 + limit + w.pb.Mag + w.qb.Mag)
			if !finite(limit) {
				if len(got) > 0 {
					t.Fatalf("within walk with limit %v visited %v, want nothing", limit, got)
				}
				continue
			}
			checkWalkPieces(t, "within", got, spans(w.p.M.Units()), spans(w.q.M.Units()), false, func(a, b int) bool {
				return boxesBeyond(w.pb.Units[a], w.qb.Units[b], limit)
			})
		}
	})
}

// boxesBeyond is the within filter's box test: every point of a lies
// farther than d from every point of b.
func boxesBeyond(a, b geom.Rect, d float64) bool {
	dx := math.Max(0, math.Max(a.MinX-b.MaxX, b.MinX-a.MaxX))
	dy := math.Max(0, math.Max(a.MinY-b.MaxY, b.MinY-a.MaxY))
	return dx*dx+dy*dy > d*d
}
