package baseline

import (
	"math"
	"testing"

	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// decodeMRegion turns fuzz bytes into a moving region of translating
// squares. The first byte's bits 0 and 1 make the first unit start at −∞
// and the last end at +∞; then three bytes per unit: the gap before it
// (low two bits; 0 is adjacent, sharing the previous end instant), its
// length (low three bits; 0 is the degenerate [t, t]), and its closure
// flags (bit 0 left-closed, bit 1 right-closed) and motion (the upper six
// bits). Closure flags that would make two units overlap at a shared
// instant are dropped; ok is false when no unit is spelled.
func decodeMRegion(raw []byte) (moving.MRegion, bool) {
	if len(raw) < 4 {
		return moving.MRegion{}, false
	}
	head, raw := raw[0], raw[1:]
	n := len(raw) / 3
	if n > 12 {
		n = 12
	}
	us := make([]units.URegion, 0, n)
	at, prevRC := 0.0, false
	for k := 0; k < n; k++ {
		gap, length, flags := raw[3*k]&3, raw[3*k+1]&7, raw[3*k+2]
		start := temporal.Instant(at + float64(gap))
		iv := temporal.Interval{Start: start, LC: flags&1 != 0, RC: flags&2 != 0}
		if k > 0 && gap == 0 && prevRC {
			if length == 0 {
				start++ // a degenerate unit cannot share a closed end
				iv.Start = start
			} else {
				iv.LC = false
			}
		}
		if k == 0 && head&1 != 0 {
			iv.Start, iv.LC = temporal.NegInf, false
		}
		iv.End = start + temporal.Instant(length)
		if k == n-1 && head&2 != 0 {
			iv.End, iv.RC = temporal.PosInf, false
		}
		if iv.IsDegenerate() {
			iv.LC, iv.RC = true, true
		}
		// A square of half-size 1 to 4 around (10k, 0), moving with a
		// velocity of −1, 0 or +1 per axis: adjacent units never carry
		// the same motion.
		h := float64(1 + flags>>2&3)
		vx, vy := float64(flags>>4&3)-1, float64(flags>>6&3)-1
		corner := func(dx, dy float64) units.MPoint {
			return units.MPoint{X0: float64(10*k) + dx*h, X1: vx, Y0: dy * h, Y1: vy}
		}
		ring := units.MCycle{corner(-1, -1), corner(1, -1), corner(1, 1), corner(-1, 1)}
		us = append(us, units.URegionUnchecked(iv, []units.MFace{{Outer: ring}}))
		at, prevRC = float64(iv.End), iv.RC
	}
	mr, err := moving.NewMRegion(us...)
	return mr, err == nil && n > 0
}

// FuzzMRegionAtInstantMatchesBaseline holds MRegion.AtInstant, the
// binary search over the ordered unit array, to NaiveMRegion.AtInstant's
// linear scan over the shuffled units: the same definedness and the same
// region at every instant — each unit's two ends and their float
// neighbours, its midpoint, the gaps either side, and the fuzzed probe.
func FuzzMRegionAtInstantMatchesBaseline(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 2, 2}, int16(0))                   // degenerate [0, 0], then (0, 2] adjacent
	f.Add([]byte{0, 0, 3, 3, 0, 3, 0, 0, 2, 1}, int16(24))         // [0, 3], (3, 6), [6, 8): adjacent
	f.Add([]byte{0, 1, 2, 0, 3, 4, 3, 2, 0, 3}, int16(36))         // gaps of 1 to 3, a degenerate unit last
	f.Add([]byte{3, 0, 2, 1, 0, 3, 2}, int16(-800))                // (−∞, 2), (2, +∞): unbounded both ways
	f.Add([]byte{1, 0, 0, 3, 0, 0, 3, 0, 4, 0}, int16(5))          // (−∞, 0], a degenerate unit moved off its end, (1, 5)
	f.Add([]byte{2, 0, 5, 3, 1, 5, 0, 0, 0, 2}, int16(32767))      // [0, 5], (6, 11), then (11, +∞)
	f.Add([]byte{0, 2, 1, 3, 0, 1, 0, 0, 1, 3, 0, 1, 2}, int16(8)) // a chain of unit-length pieces
	f.Fuzz(func(t *testing.T, raw []byte, probe int16) {
		mr, ok := decodeMRegion(raw)
		if !ok {
			t.Skip()
		}
		nr := FromMRegion(mr)
		probes := []temporal.Instant{temporal.Instant(float64(probe) / 8)}
		for _, u := range mr.M.Units() {
			for _, e := range []temporal.Instant{u.Iv.Start, u.Iv.End} {
				if !math.IsInf(float64(e), 0) {
					probes = append(probes, e, e-0.5, e+0.5,
						temporal.Instant(math.Nextafter(float64(e), math.Inf(-1))),
						temporal.Instant(math.Nextafter(float64(e), math.Inf(1))))
				}
			}
			if mid := (u.Iv.Start + u.Iv.End) / 2; !math.IsInf(float64(mid), 0) && !math.IsNaN(float64(mid)) {
				probes = append(probes, mid)
			}
		}
		for _, at := range probes {
			got, okGot := mr.AtInstant(at)
			want, okWant := nr.AtInstant(at)
			if okGot != okWant || okGot && !got.Equal(want) {
				t.Fatalf("AtInstant(%v) over %v: sliced %v (defined %v), baseline %v (defined %v)", at, mr.M.Intervals(), got, okGot, want, okWant)
			}
		}
	})
}
