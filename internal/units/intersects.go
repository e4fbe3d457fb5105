package units

import (
	"slices"

	"movingdb/internal/temporal"
)

// URegionIntersects implements the unit-pair kernel of the lifted
// intersects predicate on two moving regions: it appends to dst the
// boolean units describing when the two regions share a point, over the
// intersection of the unit intervals. Like the validity checks, the
// decision is exact for linear motion: the intersection status of two
// polygonal regions with linearly moving vertices can only change at
// instants where some pair of boundary segments changes its relation —
// the critical times of the moving segment pairs — so evaluating the
// static predicate at the criticals and between them covers the
// interval.
func URegionIntersects(dst []UBool, a, b URegion) []UBool {
	iv, ok := a.Iv.Intersect(b.Iv)
	if !ok {
		return dst
	}
	if !a.Cube().Intersects(b.Cube()) {
		return append(dst, UBool{Iv: iv, V: false})
	}
	var critical []float64
	ia := a.MSegs()
	for g, more := ia.Next(); more; g, more = ia.Next() {
		ib := b.MSegs()
		for h, more := ib.Next(); more; h, more = ib.Next() {
			critical, _ = appendCriticalTimes(critical, g, h)
		}
	}
	eval := func(t temporal.Instant) bool {
		ra, ok1 := a.EvalAt(t)
		rb, ok2 := b.EvalAt(t)
		if !ok1 || !ok2 {
			return false
		}
		return ra.IntersectsRegion(rb)
	}
	return appendBoolPieces(dst, iv, critical, eval)
}

// appendBoolPieces appends to dst the boolean units of a predicate over
// iv that can only change truth value at the given critical times: the
// interval is split at the in-interval criticals, each open piece is
// decided at its midpoint and each critical instant individually, and
// equal adjacent pieces are merged. The critical slice is reordered in
// place.
func appendBoolPieces(dst []UBool, iv temporal.Interval, critical []float64, eval func(temporal.Instant) bool) []UBool {
	if iv.IsDegenerate() {
		return append(dst, UBool{Iv: iv, V: eval(iv.Start)})
	}
	inOpen := critical[:0]
	for _, c := range critical {
		if iv.ContainsOpen(temporal.Instant(c)) {
			inOpen = append(inOpen, c)
		}
	}
	sortF(inOpen)
	// Only bit-identical instants are duplicates; instants one ulp apart
	// legitimately cut separate pieces.
	inOpen = slices.Compact(inOpen)

	first := len(dst) // pieces merge only with pieces of this call
	appendPiece := func(piv temporal.Interval, v bool) {
		if n := len(dst); n > first && dst[n-1].V == v && dst[n-1].Iv.Adjacent(piv) {
			if merged, ok := dst[n-1].Iv.Union(piv); ok {
				dst[n-1].Iv = merged
				return
			}
		}
		dst = append(dst, UBool{Iv: piv, V: v})
	}
	lo := iv.Start
	for k := 0; k <= len(inOpen); k++ {
		hi, last := iv.End, k == len(inOpen)
		if !last {
			hi = temporal.Instant(inOpen[k])
		}
		if k > 0 {
			appendPiece(temporal.AtInstant(lo), eval(lo))
		}
		mid := temporal.Instant((float64(lo) + float64(hi)) / 2)
		piece := temporal.Interval{Start: lo, End: hi, LC: k == 0 && iv.LC, RC: last && iv.RC}
		appendPiece(piece, eval(mid))
		lo = hi
	}
	return dst
}

func sortF(fs []float64) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j] < fs[j-1]; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}
