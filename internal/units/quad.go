package units

import (
	"math"
	"slices"

	"movingdb/internal/temporal"
)

// quadEps is the tolerance for treating polynomial coefficients as zero
// when classifying degree.
const quadEps = 1e-12

// QuadRoots returns the n ≤ 2 real roots of a·t² + b·t + c = 0 in
// ascending order, by value: the stab and critical-time kernels call it
// once per moving segment and must not allocate. A (near-)zero leading
// coefficient degrades gracefully to the linear or constant case; an
// identically zero polynomial reports all = true and no isolated roots.
func QuadRoots(a, b, c float64) (roots [2]float64, n int, all bool) {
	if math.Abs(a) < quadEps {
		if math.Abs(b) < quadEps {
			return roots, 0, math.Abs(c) < quadEps
		}
		roots[0] = -c / b
		return roots, 1, false
	}
	disc := b*b - 4*a*c
	switch {
	case disc < 0:
		return roots, 0, false
	//molint:ignore float-eq exact zero discriminant takes the closed-form double root; near-zero positives fall through to the stable two-root form that converges to the same value
	case disc == 0:
		roots[0] = -b / (2 * a)
		return roots, 1, false
	}
	sq := math.Sqrt(disc)
	// Numerically stable form: compute the larger-magnitude root first.
	q := -0.5 * (b + math.Copysign(sq, b))
	r1, r2 := q/a, c/q
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	return [2]float64{r1, r2}, 2, false
}

// criticalSamples returns probe instants that, together, decide a
// predicate that can only change truth value at the given critical
// times: every critical time inside the open interval, plus the
// midpoint of each open sub-interval between consecutive critical
// times. For a degenerate interval the single instant is returned.
func criticalSamples(iv temporal.Interval, critical []float64) []temporal.Instant {
	if iv.IsDegenerate() {
		return []temporal.Instant{iv.Start}
	}
	cuts := []float64{float64(iv.Start), float64(iv.End)}
	for _, c := range critical {
		if iv.ContainsOpen(temporal.Instant(c)) {
			cuts = append(cuts, c)
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	var out []temporal.Instant
	for k := 0; k+1 < len(cuts); k++ {
		mid := temporal.Instant((cuts[k] + cuts[k+1]) / 2)
		out = append(out, mid)
		if k > 0 {
			out = append(out, temporal.Instant(cuts[k]))
		}
	}
	return out
}
