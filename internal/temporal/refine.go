package temporal

// RefinementInterval is one element of the refinement partition of two
// interval sequences (Figure 8 of the paper): a maximal interval on
// which membership in both sequences is constant. A and B carry the
// index of the covering interval in the first and second input sequence,
// or −1 if the sequence does not cover the interval.
type RefinementInterval struct {
	Iv   Interval
	A, B int
}

// Refine returns the refinement partition of two interval sequences that
// are each ordered and pairwise disjoint (the shape of the unit array
// inside a mapping, and of Periods): pieces that cover exactly the union
// of the two sequences, in temporal order, split at every boundary of
// either. It is the full partition, for the figures and the traces, and
// the oracle of the lifted operations. Those need only the pieces both
// sequences cover, A ≥ 0 and B ≥ 0, and list them by index over the
// unit arrays themselves (see Seek).
func Refine(a, b []Interval) []RefinementInterval {
	if len(a)+len(b) == 0 {
		return nil
	}
	// n + m + 1 pieces hold two sequences that each run gap-free; gaps
	// on both sides make append grow it, to at most 2(n + m) − 1.
	out := make([]RefinementInterval, 0, len(a)+len(b)+1)
	s := newSweep(a, b)
	for ri, ok := s.next(); ok; ri, ok = s.next() {
		out = append(out, ri)
	}
	return out
}

// Seek returns the first index k ≥ lo of xs whose interval span(xs[k])
// does not lie wholly before iv, or len(xs); xs is ordered and pairwise
// disjoint, like a mapping's units. It is the one binary search (Section
// 4) of the walks that list the pieces two unit arrays both cover, in
// Refine's order, each piece Iv_a ∩ Iv_k. For each unit a of the first
// array a walk finds the other array's first unit not wholly before a —
// the unit its last pair covered, else the next one, and only when both
// lie before a, Seek — and then scans forward while the units meet,
// reading the intervals in place. Two values whose lifetimes overlap in
// k of their n + m units so cost O(n + k) steps, and O(log m) for each
// gap a walk seeks across.
func Seek[E any](xs []E, lo int, iv Interval, span func(E) Interval) int {
	hi := len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if span(xs[mid]).RDisjoint(iv) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sweep streams Refine's partition: the two-cursor merge of the two
// already ordered endpoint streams — no endpoint array, no sort, no
// materialised partition. A whole sweep costs O(n + m) and allocates
// nothing.
type sweep struct {
	a, b []Interval
	i, j int
	// at is where the sweep stands: everything before it is emitted.
	at boundary
}

// boundary is a cut of the time axis just before (after == false) or
// just after instant t. An interval i is the half-open range of
// boundaries from lower(i) to upper(i) — [s, e] runs from just before s
// to just after e, (s, e) from just after s to just before e — which
// turns the four closure cases into one comparison.
type boundary struct {
	t     Instant
	after bool
}

func (b boundary) less(c boundary) bool {
	return b.t < c.t || (b.t == c.t && !b.after && c.after)
}

func lower(i Interval) boundary { return boundary{i.Start, !i.LC} }
func upper(i Interval) boundary { return boundary{i.End, i.RC} }

// newSweep starts the sweep over a and b, just before −∞.
func newSweep(a, b []Interval) *sweep {
	return &sweep{a: a, b: b, at: boundary{t: NegInf}}
}

// next returns the next piece of the partition; ok is false when both
// sequences are exhausted.
func (s *sweep) next() (ri RefinementInterval, ok bool) {
	// Drop the intervals that end at or before the current boundary.
	for s.i < len(s.a) && !s.at.less(upper(s.a[s.i])) {
		s.i++
	}
	for s.j < len(s.b) && !s.at.less(upper(s.b[s.j])) {
		s.j++
	}
	moreA, moreB := s.i < len(s.a), s.j < len(s.b)
	if !moreA && !moreB {
		return RefinementInterval{}, false
	}
	var ia, ib Interval
	if moreA {
		ia = s.a[s.i]
	}
	if moreB {
		ib = s.b[s.j]
	}
	// An interval covers the current boundary when it starts at or
	// before it. In a gap of both sequences, jump to the earlier start.
	inA := moreA && !s.at.less(lower(ia))
	inB := moreB && !s.at.less(lower(ib))
	if !inA && !inB {
		if moreA && (!moreB || !lower(ib).less(lower(ia))) {
			s.at, inA = lower(ia), true
			inB = moreB && !s.at.less(lower(ib))
		} else {
			s.at, inB = lower(ib), true
		}
	}
	// The piece runs to the nearest boundary at which membership
	// changes: the end of a covering interval, the start of a waiting
	// one.
	ri = RefinementInterval{A: -1, B: -1}
	end := boundary{PosInf, true}
	if moreA {
		if inA {
			ri.A = s.i
		}
		end = changeAt(ia, inA)
	}
	if moreB {
		if inB {
			ri.B = s.j
		}
		if e := changeAt(ib, inB); e.less(end) {
			end = e
		}
	}
	ri.Iv = Interval{Start: s.at.t, End: end.t, LC: !s.at.after, RC: end.after}
	s.at = end
	return ri, true
}

// changeAt returns the boundary at which membership in iv changes next:
// its end while it covers the sweep's position, its start while it
// waits.
func changeAt(iv Interval, covers bool) boundary {
	if covers {
		return upper(iv)
	}
	return lower(iv)
}
