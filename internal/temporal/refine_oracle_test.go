package temporal

import "slices"

// refineSorted is the sort-based refinement partition that Refine was
// until the streaming sweep replaced it: collect every endpoint, sort,
// walk the atomic decomposition — alternating degenerate [t_k, t_k] and
// open (t_k, t_{k+1}) atoms — and merge atoms of identical membership.
// It survives only here, as the oracle FuzzRefine holds the sweep to.
func refineSorted(a, b []Interval) []RefinementInterval {
	cuts := make([]Instant, 0, 2*(len(a)+len(b)))
	for _, iv := range a {
		cuts = append(cuts, iv.Start, iv.End)
	}
	for _, iv := range b {
		cuts = append(cuts, iv.Start, iv.End)
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	if len(cuts) == 0 {
		return nil
	}

	var out []RefinementInterval
	ia, ib := 0, 0
	emit := func(atom Interval, idxA, idxB int) {
		if idxA < 0 && idxB < 0 {
			return
		}
		if n := len(out); n > 0 && out[n-1].A == idxA && out[n-1].B == idxB {
			if u, ok := out[n-1].Iv.Union(atom); ok {
				out[n-1].Iv = u
				return
			}
		}
		out = append(out, RefinementInterval{Iv: atom, A: idxA, B: idxB})
	}
	// coverPoint returns the index of the interval in seq containing t,
	// advancing ptr past intervals entirely before t.
	coverPoint := func(seq []Interval, ptr *int, t Instant) int {
		for *ptr < len(seq) && seq[*ptr].End < t {
			*ptr++
		}
		// The interval at *ptr may end exactly at t but open; peek ahead
		// one position to handle [x, t) immediately followed by a later
		// interval starting at t.
		for k := *ptr; k < len(seq) && seq[k].Start <= t; k++ {
			if seq[k].Contains(t) {
				return k
			}
		}
		return -1
	}
	// coverOpen returns the index of the interval containing the whole
	// open atom (lo, hi). Because lo and hi are cuts, an interval either
	// contains all of the atom or none of it.
	coverOpen := func(seq []Interval, ptr *int, lo, hi Instant) int {
		for *ptr < len(seq) && seq[*ptr].End <= lo {
			*ptr++
		}
		if *ptr < len(seq) {
			iv := seq[*ptr]
			if iv.Start <= lo && hi <= iv.End {
				return *ptr
			}
		}
		return -1
	}

	for k, t := range cuts {
		pa := coverPoint(a, &ia, t)
		pb := coverPoint(b, &ib, t)
		emit(AtInstant(t), pa, pb)
		if k+1 < len(cuts) {
			lo, hi := t, cuts[k+1]
			oa := coverOpen(a, &ia, lo, hi)
			ob := coverOpen(b, &ib, lo, hi)
			emit(Open(lo, hi), oa, ob)
		}
	}
	return out
}
