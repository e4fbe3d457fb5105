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

// Spanned is anything that occupies a time interval: the units of a
// mapping, and an Interval itself.
type Spanned interface {
	Interval() Interval
}

// Interval returns i, so that interval sequences (Periods, the inputs of
// Refine) are swept by the same code as unit arrays.
func (i IntervalOf[T]) Interval() IntervalOf[T] { return i }

// Sweep streams the refinement partition of two sequences that are each
// ordered and pairwise disjoint (the shape of the unit array inside a
// mapping, and of Periods): every lifted binary operation traverses the
// two arrays through it and applies a unit-pair kernel per piece
// (Section 5.2). It is the two-cursor merge of the two already ordered
// endpoint streams — no endpoint array, no sort, no materialised
// partition — and the refinement partition of every lifted operation:
// the pieces cover exactly the union of the two sequences, in temporal
// order, split at every boundary of either. (The join filters in
// package moving need only the pieces both sides cover, and list them
// by index over the two unit arrays instead: the pairs whose intervals
// meet, each piece their intersection.)
//
// The cost of a whole sweep is O(n + m), with Interval() called once per
// element, and it allocates nothing.
type Sweep[A, B Spanned] struct {
	a    []A
	b    []B
	i, j int
	// ia and ib cache a[i].Interval() and b[j].Interval(); before the
	// first step i and j are −1 and ia and ib end at −∞, so the first
	// step loads element 0 like any later one.
	ia, ib Interval
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

// NewSweep starts the sweep over a and b. It reads no element: the
// sweep is built where the caller holds it (the function inlines and
// the pointer stays on the caller's stack), and the first step loads
// the first elements.
func NewSweep[A, B Spanned](a []A, b []B) *Sweep[A, B] {
	before := Interval{Start: NegInf, End: NegInf}
	return &Sweep[A, B]{a: a, b: b, i: -1, j: -1, ia: before, ib: before, at: boundary{t: NegInf}}
}

// Next returns the next piece of the partition; ok is false when both
// sequences are exhausted.
func (s *Sweep[A, B]) Next() (ri RefinementInterval, ok bool) {
	// Drop the intervals that end at or before the current boundary.
	for s.i < len(s.a) && !s.at.less(upper(s.ia)) {
		if s.i++; s.i < len(s.a) {
			s.ia = s.a[s.i].Interval()
		}
	}
	for s.j < len(s.b) && !s.at.less(upper(s.ib)) {
		if s.j++; s.j < len(s.b) {
			s.ib = s.b[s.j].Interval()
		}
	}
	moreA, moreB := s.i < len(s.a), s.j < len(s.b)
	if !moreA && !moreB {
		return RefinementInterval{}, false
	}
	// An interval covers the current boundary when it starts at or
	// before it. In a gap of both sequences, jump to the earlier start.
	inA := moreA && !s.at.less(lower(s.ia))
	inB := moreB && !s.at.less(lower(s.ib))
	if !inA && !inB {
		if moreA && (!moreB || !lower(s.ib).less(lower(s.ia))) {
			s.at, inA = lower(s.ia), true
			inB = moreB && !s.at.less(lower(s.ib))
		} else {
			s.at, inB = lower(s.ib), true
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
		end = changeAt(s.ia, inA)
	}
	if moreB {
		if inB {
			ri.B = s.j
		}
		if e := changeAt(s.ib, inB); e.less(end) {
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

// NextCommon returns the next piece that both sequences cover — the
// pieces a lifted binary operation produces a unit for — with the
// indexes of the two elements that cover it. It does not walk the
// pieces only one sequence covers: it jumps to the later of the two
// current starts, seeks the other cursor there, and ends when either
// sequence is exhausted. The seek rule is one: a cursor moves to the
// first element at or after it that ends after the sweep's position.
// The two cases that answer it almost always — the current element
// still ends after it, or the next one does, as in a gap-free sequence
// — are tested here, in line; only when both fail does seekFrom
// binary-search the rest of the ordered array (Section 4). So two
// values whose lifetimes overlap in k of their n + m units cost
// O(k + log(n + m)).
func (s *Sweep[A, B]) NextCommon() (RefinementInterval, bool) {
	for {
		if s.i < len(s.a) && !s.at.less(upper(s.ia)) {
			if s.i++; s.i < len(s.a) {
				if s.ia = s.a[s.i].Interval(); !s.at.less(upper(s.ia)) {
					s.i, s.ia = seekFrom(s.a, s.i+1, s.ia, s.at)
				}
			}
		}
		if s.j < len(s.b) && !s.at.less(upper(s.ib)) {
			if s.j++; s.j < len(s.b) {
				if s.ib = s.b[s.j].Interval(); !s.at.less(upper(s.ib)) {
					s.j, s.ib = seekFrom(s.b, s.j+1, s.ib, s.at)
				}
			}
		}
		if s.i == len(s.a) || s.j == len(s.b) {
			return RefinementInterval{}, false
		}
		lo := lower(s.ia)
		if lo.less(lower(s.ib)) {
			lo = lower(s.ib)
		}
		if !s.at.less(lo) {
			break // both cover the sweep's position
		}
		s.at = lo
	}
	from, end := s.at, upper(s.ia)
	if upper(s.ib).less(end) {
		end = upper(s.ib)
	}
	s.at = end
	iv := Interval{Start: from.t, End: end.t, LC: !from.after, RC: end.after}
	return RefinementInterval{Iv: iv, A: s.i, B: s.j}, true
}

// seekFrom is the binary search of NextCommon's seek rule: the first
// position at or after k whose element ends after the boundary at,
// together with that element's interval (iv when there is none).
func seekFrom[E Spanned](xs []E, k int, iv Interval, at boundary) (int, Interval) {
	lo, hi := k, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if at.less(upper(xs[mid].Interval())) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(xs) {
		iv = xs[lo].Interval()
	}
	return lo, iv
}

// Refine collects the refinement partition of two interval sequences
// into a slice; see Sweep. The lifted operations stream the sweep
// instead.
func Refine(a, b []Interval) []RefinementInterval {
	if len(a)+len(b) == 0 {
		return nil
	}
	// n + m + 1 pieces hold two sequences that each run gap-free; gaps
	// on both sides make append grow it, to at most 2(n + m) − 1.
	out := make([]RefinementInterval, 0, len(a)+len(b)+1)
	s := NewSweep(a, b)
	for ri, ok := s.Next(); ok; ri, ok = s.Next() {
		out = append(out, ri)
	}
	return out
}
