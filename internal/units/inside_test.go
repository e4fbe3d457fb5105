package units

import (
	"math/rand"
	"slices"
	"testing"

	"movingdb/internal/temporal"
)

// decodeInsideCase turns fuzz bytes into a unit pair on the integer grid,
// where touches, vertex passages and crossings at a piece start are
// exact: two bytes per interval (the start as an int8, then the length
// in its low four bits and the closure flags in 0x10 and 0x20; length 0
// is the degenerate [t, t]), the point's X0, X1, Y0, Y1 as int8s, and
// then three to six region vertices of four such bytes each, one moving
// cycle. The region is not validated: the predicate must equal the
// kernel on whatever the kernel is given. ok is false when the bytes
// spell fewer than three vertices.
func decodeInsideCase(raw []byte) (up UPoint, ur URegion, ok bool) {
	if len(raw) < 8+3*4 {
		return up, ur, false
	}
	up.Iv, ur.Iv = decodeInterval(raw[0], raw[1]), decodeInterval(raw[2], raw[3])
	up.M = decodeMotion(raw[4:8])
	var cycle MCycle
	for k := 8; k+4 <= len(raw) && len(cycle) < 6; k += 4 {
		cycle = append(cycle, decodeMotion(raw[k:k+4]))
	}
	ur.Faces = []MFace{{Outer: cycle}}
	return up, ur, true
}

func decodeInterval(start, flags byte) temporal.Interval {
	s := temporal.Instant(int8(start))
	iv := temporal.Interval{Start: s, End: s + temporal.Instant(flags&0x0f), LC: flags&0x10 != 0, RC: flags&0x20 != 0}
	if iv.IsDegenerate() {
		iv.LC, iv.RC = true, true
	}
	return iv
}

func decodeMotion(b []byte) MPoint {
	return MPoint{X0: float64(int8(b[0])), X1: float64(int8(b[1])), Y0: float64(int8(b[2])), Y1: float64(int8(b[3]))}
}

// checkSometimesInside holds the predicate kernel to the any-true of the
// full kernel's boolean units.
func checkSometimesInside(t *testing.T, raw []byte) {
	up, ur, ok := decodeInsideCase(raw)
	if !ok {
		return
	}
	units := UPointInsideURegion(nil, up, ur)
	want := slices.ContainsFunc(units, func(ub UBool) bool { return ub.V })
	if got := UPointSometimesInsideURegion(up, ur); got != want {
		t.Fatalf("UPointSometimesInsideURegion = %v, but UPointInsideURegion yields %v\n up %+v\n ur %+v", got, units, up, ur)
	}
}

// FuzzSometimesInsideMatchesKernel holds UPointSometimesInsideURegion to
// "UPointInsideURegion returns a true unit" on every unit pair the
// fuzzer can spell (see decodeInsideCase).
func FuzzSometimesInsideMatchesKernel(f *testing.F) {
	// Two intervals, the point's motion, then the ring: a static [0,4]²
	// square, a static diamond with its bottom vertex at (4, 0), and the
	// square translating at unit speed along x.
	const closed, m1 = 0x30, 0xff // m1 is int8 −1
	square := []byte{0, 0, 0, 0, 4, 0, 0, 0, 4, 0, 4, 0, 0, 0, 4, 0}
	diamond := []byte{4, 0, 0, 0, 8, 0, 4, 0, 4, 0, 8, 0, 0, 0, 4, 0}
	drifting := []byte{0, 1, 0, 0, 4, 1, 0, 0, 4, 1, 4, 0, 0, 1, 4, 0}
	for _, s := range []struct{ head, ring []byte }{
		// Enters across the left edge exactly at the piece start and
		// stays inside, or leaves across the right edge at t = 4.
		{[]byte{0, 3 | closed, 0, 8 | closed, 0, 1, 2, 0}, square},
		{[]byte{0, 8 | closed, 0, 8 | closed, 0, 1, 2, 0}, square},
		// Leaves across it there: on the boundary at the start only,
		// with the start closed and open.
		{[]byte{0, 8 | closed, 0, 8 | closed, 0, m1, 2, 0}, square},
		{[]byte{0, 8, 0, 8 | closed, 0, m1, 2, 0}, square},
		// A degenerate piece, inside and outside.
		{[]byte{3, 0, 0, 8 | closed, 2, 0, 2, 0}, square},
		{[]byte{0, 8 | closed, 4, 0, 9, m1, 2, 0}, square},
		// Touches the shared vertex (4, 0) at t = 4.
		{[]byte{0, 8 | closed, 0, 8 | closed, 0, 1, 0, 0}, diamond},
		// Moves along the left edge (QuadRoots reports all).
		{[]byte{0, 8 | closed, 0, 8 | closed, 0, 0, 0xfe, 1}, square},
		// Rests on the boundary, at the midpoint too.
		{[]byte{0, 8 | closed, 0, 8 | closed, 0, 0, 2, 0}, square},
		// The region reaches the resting point at t = 5.
		{[]byte{0, 8 | closed, 0, 8 | closed, 9, 0, 2, 0}, drifting},
	} {
		f.Add(slices.Concat(s.head, s.ring))
	}
	f.Fuzz(checkSometimesInside)
}

// TestSometimesInsideMatchesKernel runs the fuzz property over seeded
// random unit pairs on a small grid, so every plain test run covers more
// than the seed corpus.
func TestSometimesInsideMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	raw := make([]byte, 8+6*4)
	for n := 0; n < 20000; n++ {
		for k := range raw {
			raw[k] = byte(rng.Intn(9) - 4)
		}
		raw[1], raw[3] = byte(rng.Intn(64)), byte(rng.Intn(64))
		checkSometimesInside(t, raw[:8+(3+rng.Intn(4))*4])
	}
}
