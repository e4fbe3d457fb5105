package index

import (
	"math"

	"movingdb/internal/geom"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// UPointInWindow reports exactly whether the unit is inside rect at
// some instant of iv: the coordinates of a upoint are linear in t, so
// the times inside an axis-aligned window form an interval computable
// in closed form. ingest.Epoch.Window refines its index candidates with
// it.
func UPointInWindow(u units.UPoint, rect geom.Rect, iv temporal.Interval) bool {
	return unitInWindow(u.M.X0, u.M.X1, u.M.Y0, u.M.Y1, rect, u.Iv, iv)
}

// unitInWindow decides exactly whether the linear motion is inside rect
// at some instant of both intervals: each coordinate constraint
// lo ≤ c0 + c1·t ≤ hi yields a t-interval; their intersection with the
// unit interval and the query interval must be non-empty.
func unitInWindow(x0, x1, y0, y1 float64, rect geom.Rect, unitIv, queryIv temporal.Interval) bool {
	lo := math.Max(float64(unitIv.Start), float64(queryIv.Start))
	hi := math.Min(float64(unitIv.End), float64(queryIv.End))
	if lo > hi {
		return false
	}
	var ok bool
	lo, hi, ok = clampLinear(x0, x1, rect.MinX, rect.MaxX, lo, hi)
	if !ok {
		return false
	}
	lo, hi, ok = clampLinear(y0, y1, rect.MinY, rect.MaxY, lo, hi)
	if !ok {
		return false
	}
	// Closure flags: an intersection reduced to a single endpoint that
	// is open in either interval is rejected conservatively only when
	// both constraining intervals exclude it; for window queries the
	// measure-zero case is reported as a hit iff both intervals contain
	// the instant.
	if lo == hi {
		t := temporal.Instant(lo)
		return unitIv.Contains(t) && queryIv.Contains(t)
	}
	return lo < hi
}

// clampLinear intersects [lo, hi] with the times where
// min ≤ c0 + c1·t ≤ max.
func clampLinear(c0, c1, minV, maxV, lo, hi float64) (float64, float64, bool) {
	if c1 == 0 {
		if c0 < minV || c0 > maxV {
			return 0, 0, false
		}
		return lo, hi, true
	}
	t1 := (minV - c0) / c1
	t2 := (maxV - c0) / c1
	if t1 > t2 {
		t1, t2 = t2, t1
	}
	lo = math.Max(lo, t1)
	hi = math.Min(hi, t2)
	if lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}

// ScanWindow reports, in ascending order, the indices of the objects
// inside rect at some instant of iv by testing every unit of every
// object: the reference the indexed window (ingest.Epoch.Window) is
// tested and benchmarked against.
func ScanWindow(objects []moving.MPoint, rect geom.Rect, iv temporal.Interval) []int {
	var out []int
	for oi, p := range objects {
		for _, u := range p.M.Units() {
			if unitInWindow(u.M.X0, u.M.X1, u.M.Y0, u.M.Y1, rect, u.Iv, iv) {
				out = append(out, oi)
				break
			}
		}
	}
	return out
}
