package index

import (
	"math"

	"movingdb/internal/geom"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// MPointIndex indexes the units of a collection of moving points for
// spatio-temporal window queries: "which objects were inside rectangle W
// at some instant of period P". The R-tree over unit cubes gives the
// candidate set; an exact refinement step solves the per-unit linear
// containment (the coordinates of a upoint are linear in t, so the times
// inside an axis-aligned window form an interval computable in closed
// form).
type MPointIndex struct {
	tree    *RTree
	objects []moving.MPoint
}

// BuildMPointIndex indexes every unit of every object; the entry ID
// encodes (object, unit).
func BuildMPointIndex(objects []moving.MPoint) *MPointIndex {
	var entries []Entry
	for oi, p := range objects {
		for ui, u := range p.M.Units() {
			entries = append(entries, Entry{Cube: u.Cube(), ID: int64(oi)<<32 | int64(ui)})
		}
	}
	return &MPointIndex{tree: Build(entries), objects: objects}
}

// Tree exposes the underlying R-tree (for statistics).
func (ix *MPointIndex) Tree() *RTree { return ix.tree }

// Window reports the object indices that are inside rect during iv at
// some instant, in ascending order. The refinement step is exact.
func (ix *MPointIndex) Window(rect geom.Rect, iv temporal.Interval) []int {
	q := geom.Cube{Rect: rect, MinT: float64(iv.Start), MaxT: float64(iv.End)}
	ids, _ := ix.tree.Search(q, nil)
	seen := make(map[int]bool)
	var out []int
	for _, id := range ids {
		oi := int(id >> 32)
		ui := int(id & 0xffffffff)
		if seen[oi] {
			continue
		}
		u := ix.objects[oi].M.Units()[ui]
		if unitInWindow(u.M.X0, u.M.X1, u.M.Y0, u.M.Y1, rect, u.Iv, iv) {
			seen[oi] = true
			out = append(out, oi)
		}
	}
	// Ascending object order for deterministic results.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// UPointInWindow reports exactly whether the unit is inside rect at
// some instant of iv — the refinement predicate behind Window, exported
// for the live ingestion path, which refines index candidates
// against the current unit data of its object store.
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

// ScanWindow answers the same query by scanning every unit of every
// object — the baseline for the index ablation.
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
