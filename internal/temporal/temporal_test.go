package temporal

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestInstantConversions(t *testing.T) {
	ts := time.Date(2000, 5, 16, 12, 0, 0, 0, time.UTC) // SIGMOD 2000 week
	i := Instant(ts.Unix())
	if got := i.Time(); !got.Equal(ts) {
		t.Errorf("round trip: %v != %v", got, ts)
	}
	if NegInf.IsFinite() || PosInf.IsFinite() || Instant(math.NaN()).IsFinite() {
		t.Error("IsFinite accepted non-finite")
	}
	if !Instant(0).IsFinite() {
		t.Error("IsFinite rejected 0")
	}
}

func TestIntervalValidate(t *testing.T) {
	if _, err := NewInterval(2, 1, true, true); err == nil {
		t.Error("reversed interval accepted")
	}
	if _, err := NewInterval(1, 1, true, false); err == nil {
		t.Error("half-open degenerate interval accepted")
	}
	if _, err := NewInterval(1, 1, true, true); err != nil {
		t.Errorf("closed degenerate interval rejected: %v", err)
	}
	if _, err := NewInterval(Instant(math.NaN()), 1, true, true); err == nil {
		t.Error("NaN start accepted")
	}
}

func TestIntervalContains(t *testing.T) {
	iv := MustInterval(1, 3, true, false) // [1, 3)
	for _, c := range []struct {
		t    Instant
		want bool
	}{{0.9, false}, {1, true}, {2, true}, {3, false}, {3.1, false}} {
		if got := iv.Contains(c.t); got != c.want {
			t.Errorf("[1,3).Contains(%v) = %v", c.t, got)
		}
	}
	if !iv.ContainsOpen(2) || iv.ContainsOpen(1) || iv.ContainsOpen(3) {
		t.Error("ContainsOpen wrong")
	}
	deg := AtInstant(5)
	if !deg.ContainsOpen(5) {
		t.Error("degenerate interval: its instant is its open part")
	}
}

func TestDisjointAdjacent(t *testing.T) {
	a := MustInterval(0, 1, true, true)  // [0,1]
	b := MustInterval(1, 2, true, true)  // [1,2]
	c := MustInterval(1, 2, false, true) // (1,2]
	d := MustInterval(2, 3, false, true) // (2,3]

	if a.Disjoint(b) {
		t.Error("[0,1] and [1,2] share instant 1")
	}
	if !a.Disjoint(c) {
		t.Error("[0,1] and (1,2] are disjoint")
	}
	if !a.Adjacent(c) {
		t.Error("[0,1] and (1,2] are adjacent")
	}
	if !c.Adjacent(a) {
		t.Error("adjacency must be symmetric")
	}
	if !c.Adjacent(d) {
		// (1,2] and (2,3] share no instant and their union is (1,3]:
		// adjacent.
		t.Error("(1,2] and (2,3] are adjacent")
	}
	if !a.RDisjoint(c) || c.RDisjoint(a) {
		t.Error("RDisjoint wrong")
	}
	open1 := MustInterval(0, 1, true, false) // [0,1)
	open2 := MustInterval(1, 2, false, true) // (1,2]
	if !open1.Disjoint(open2) {
		t.Error("[0,1) and (1,2] are disjoint")
	}
	if open1.Adjacent(open2) {
		t.Error("[0,1) and (1,2] leave a gap at 1: not adjacent")
	}
}

func TestIntervalIntersect(t *testing.T) {
	a := MustInterval(0, 4, true, false) // [0,4)
	b := MustInterval(2, 6, false, true) // (2,6]
	got, ok := a.Intersect(b)
	if !ok || got != MustInterval(2, 4, false, false) {
		t.Errorf("intersect = %v, %v", got, ok)
	}
	// Touching at a shared closed endpoint: degenerate result.
	c := MustInterval(4, 6, true, true)
	a2 := MustInterval(0, 4, true, true)
	got, ok = a2.Intersect(c)
	if !ok || got != AtInstant(4) {
		t.Errorf("touch intersect = %v, %v", got, ok)
	}
	// Touching with an open side: no intersection.
	if _, ok := a.Intersect(c); ok {
		t.Error("[0,4) ∩ [4,6] should be empty")
	}
	if _, ok := a.Intersect(MustInterval(7, 8, true, true)); ok {
		t.Error("disjoint intervals intersect")
	}
}

func TestIntervalUnion(t *testing.T) {
	a := MustInterval(0, 2, true, false)
	b := MustInterval(2, 4, true, true)
	got, ok := a.Union(b)
	if !ok || got != MustInterval(0, 4, true, true) {
		t.Errorf("union = %v, %v", got, ok)
	}
	if _, ok := a.Union(MustInterval(5, 6, true, true)); ok {
		t.Error("union of separated intervals should fail")
	}
	// Overlapping.
	c := MustInterval(1, 5, false, false)
	got, ok = a.Union(c)
	if !ok || got != MustInterval(0, 5, true, false) {
		t.Errorf("overlap union = %v, %v", got, ok)
	}
	// Same start, closure is ORed.
	d := MustInterval(0, 1, false, true)
	got, ok = a.Union(d)
	if !ok || !got.LC {
		t.Errorf("same-start union closure = %v", got)
	}
}

func TestIntervalMinus(t *testing.T) {
	a := MustInterval(0, 10, true, true)
	mid := MustInterval(3, 5, true, false) // [3,5)
	out := a.Minus(mid)
	if len(out) != 2 {
		t.Fatalf("minus = %v", out)
	}
	if out[0] != MustInterval(0, 3, true, false) {
		t.Errorf("left = %v", out[0])
	}
	if out[1] != MustInterval(5, 10, true, true) {
		t.Errorf("right = %v", out[1])
	}
	// Removing a superset leaves nothing.
	if out := mid.Minus(a); len(out) != 0 {
		t.Errorf("superset minus = %v", out)
	}
	// Removing an open interval leaves its closed endpoints.
	out = MustInterval(3, 5, true, true).Minus(MustInterval(3, 5, false, false))
	if len(out) != 2 || out[0] != AtInstant(3) || out[1] != AtInstant(5) {
		t.Errorf("endpoints minus = %v", out)
	}
	// Disjoint removal is the identity.
	out = a.Minus(MustInterval(11, 12, true, true))
	if len(out) != 1 || out[0] != a {
		t.Errorf("disjoint minus = %v", out)
	}
}

func TestIntervalMinusProperty(t *testing.T) {
	// For random intervals and probe instants: t ∈ a.Minus(b) iff
	// t ∈ a and t ∉ b.
	f := func(s1, e1, s2, e2 int8, lc1, rc1, lc2, rc2 bool, probe int8) bool {
		a, err := NewInterval(Instant(min(s1, e1)), Instant(max(s1, e1)), lc1 || s1 == e1, rc1 || s1 == e1)
		if err != nil {
			return true
		}
		b, err := NewInterval(Instant(min(s2, e2)), Instant(max(s2, e2)), lc2 || s2 == e2, rc2 || s2 == e2)
		if err != nil {
			return true
		}
		t0 := Instant(probe)
		want := a.Contains(t0) && !b.Contains(t0)
		got := false
		for _, iv := range a.Minus(b) {
			if iv.Validate() != nil {
				return false
			}
			if iv.Contains(t0) {
				got = true
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPeriodsCanonical(t *testing.T) {
	p := MustPeriods(
		MustInterval(5, 7, true, true),
		MustInterval(0, 2, true, false),
		MustInterval(2, 4, true, true), // adjacent to [0,2) -> merge
		MustInterval(6, 9, false, true),
	)
	ivs := p.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("canonical = %v", p)
	}
	if ivs[0] != MustInterval(0, 4, true, true) || ivs[1] != MustInterval(5, 9, true, true) {
		t.Errorf("canonical = %v", p)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if p.Duration() != 4+4 {
		t.Errorf("Duration = %v", p.Duration())
	}
}

func TestPeriodsContains(t *testing.T) {
	p := MustPeriods(MustInterval(0, 2, true, false), MustInterval(5, 7, false, true))
	cases := []struct {
		t    Instant
		want bool
	}{{-1, false}, {0, true}, {1, true}, {2, false}, {3, false}, {5, false}, {6, true}, {7, true}, {8, false}}
	for _, c := range cases {
		if got := p.Contains(c.t); got != c.want {
			t.Errorf("Contains(%v) = %v", c.t, got)
		}
	}
	lo, ok := p.Min()
	if !ok || lo != 0 {
		t.Error("Min wrong")
	}
	hi, ok := p.Max()
	if !ok || hi != 7 {
		t.Error("Max wrong")
	}
	if _, ok := (Periods{}).Min(); ok {
		t.Error("empty Min should fail")
	}
}

func TestPeriodsSetOps(t *testing.T) {
	p := MustPeriods(MustInterval(0, 4, true, true))
	q := MustPeriods(MustInterval(2, 6, true, true), MustInterval(8, 9, true, true))

	u := p.Union(q)
	if u.Len() != 2 || u.Intervals()[0] != MustInterval(0, 6, true, true) {
		t.Errorf("union = %v", u)
	}
	i := p.Intersect(q)
	if i.Len() != 1 || i.Intervals()[0] != MustInterval(2, 4, true, true) {
		t.Errorf("intersect = %v", i)
	}
	m := p.Minus(q)
	if m.Len() != 1 || m.Intervals()[0] != MustInterval(0, 2, true, false) {
		t.Errorf("minus = %v", m)
	}
	if !p.Minus(p).IsEmpty() {
		t.Error("p \\ p not empty")
	}
	if !p.Intersect(Periods{}).IsEmpty() {
		t.Error("p ∩ ∅ not empty")
	}
	if !p.Union(Periods{}).Equal(p) {
		t.Error("p ∪ ∅ != p")
	}
}

func TestPeriodsSetOpsProperty(t *testing.T) {
	// Membership semantics of union, intersection and difference against
	// random interval soups, for both instantiations. The expected
	// membership is read off the raw generated intervals, not off the
	// ranges under test, at every endpoint and every midpoint between
	// consecutive endpoints.
	t.Run("instant", func(t *testing.T) { checkSetOpsProperty[Instant](t) })
	t.Run("real", func(t *testing.T) { checkSetOpsProperty[float64](t) })
}

// rawInterval is a generated interval as plain numbers and flags.
type rawInterval struct {
	s, e   float64
	lc, rc bool
}

func (r rawInterval) has(v float64) bool {
	return (r.s < v && v < r.e) || (v == r.s && r.lc) || (v == r.e && r.rc)
}

func checkSetOpsProperty[T ~float64](t *testing.T) {
	raws := func(raw []int8, flags []bool) []rawInterval {
		var out []rawInterval
		for k := 0; k+1 < len(raw) && k+1 < len(flags); k += 2 {
			r := rawInterval{s: float64(min(raw[k], raw[k+1])), e: float64(max(raw[k], raw[k+1])), lc: flags[k], rc: flags[k+1]}
			if r.s == r.e {
				r.lc, r.rc = true, true
			}
			out = append(out, r)
		}
		return out
	}
	mk := func(rs []rawInterval) RangeOf[T] {
		ivs := make([]IntervalOf[T], len(rs))
		for k, r := range rs {
			ivs[k] = IntervalOf[T]{Start: T(r.s), End: T(r.e), LC: r.lc, RC: r.rc}
		}
		out, err := NewRange(ivs...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	in := func(rs []rawInterval, v float64) bool {
		for _, r := range rs {
			if r.has(v) {
				return true
			}
		}
		return false
	}
	f := func(raw1, raw2 []int8, flags1, flags2 []bool) bool {
		rs1, rs2 := raws(raw1, flags1), raws(raw2, flags2)
		p, q := mk(rs1), mk(rs2)
		u, i, m := p.Union(q), p.Intersect(q), p.Minus(q)
		if u.Validate() != nil || i.Validate() != nil || m.Validate() != nil {
			return false
		}
		ends := []float64{-200, 200}
		for _, r := range append(rs1, rs2...) {
			ends = append(ends, r.s, r.e)
		}
		slices.Sort(ends)
		probes := slices.Clone(ends)
		for k := 1; k < len(ends); k++ {
			probes = append(probes, (ends[k-1]+ends[k])/2)
		}
		for _, v := range probes {
			inP, inQ := in(rs1, v), in(rs2, v)
			if p.Contains(T(v)) != inP || q.Contains(T(v)) != inQ ||
				u.Contains(T(v)) != (inP || inQ) ||
				i.Contains(T(v)) != (inP && inQ) ||
				m.Contains(T(v)) != (inP && !inQ) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestPeriodsEqualCanonicalRepresentation(t *testing.T) {
	// The same instant set assembled differently must compare equal —
	// the unique-representation property of Section 3.2.3.
	p := MustPeriods(MustInterval(0, 1, true, false), MustInterval(1, 2, true, true))
	q := MustPeriods(MustInterval(0, 2, true, true))
	if !p.Equal(q) {
		t.Errorf("canonical forms differ: %v vs %v", p, q)
	}
}

func TestRefineBasic(t *testing.T) {
	// Figure 8 shape: two interval sets refine into the partition at
	// every boundary.
	a := []Interval{MustInterval(0, 4, true, true), MustInterval(6, 8, true, true)}
	b := []Interval{MustInterval(2, 7, true, true)}
	out := Refine(a, b)

	// Check coverage and membership by probing.
	probes := []struct {
		t            Instant
		inA, inB     bool
		wantACovered bool
	}{
		{0, true, false, true}, {1, true, false, true}, {2, true, true, true},
		{3, true, true, true}, {4, true, true, true}, {4.5, false, true, false},
		{5, false, true, false}, {6, true, true, true}, {7, true, true, true},
		{7.5, true, false, true}, {8, true, false, true}, {9, false, false, false},
	}
	covered := func(t0 Instant) (bool, bool, bool) {
		for _, ri := range out {
			if ri.Iv.Contains(t0) {
				return true, ri.A >= 0, ri.B >= 0
			}
		}
		return false, false, false
	}
	for _, pr := range probes {
		inPart, gotA, gotB := covered(pr.t)
		if inPart != (pr.inA || pr.inB) {
			t.Errorf("t=%v: covered=%v want %v", pr.t, inPart, pr.inA || pr.inB)
			continue
		}
		if inPart && (gotA != pr.inA || gotB != pr.inB) {
			t.Errorf("t=%v: membership (%v,%v) want (%v,%v)", pr.t, gotA, gotB, pr.inA, pr.inB)
		}
	}
	// The partition must be ordered and non-overlapping.
	for k := 1; k < len(out); k++ {
		if !out[k-1].Iv.RDisjoint(out[k].Iv) {
			t.Errorf("partition overlaps at %d: %v then %v", k, out[k-1].Iv, out[k].Iv)
		}
	}
	// Indices must point at the covering intervals.
	for _, ri := range out {
		mid := Instant((float64(ri.Iv.Start) + float64(ri.Iv.End)) / 2)
		if ri.A >= 0 && !a[ri.A].Contains(mid) {
			t.Errorf("A index %d does not cover %v", ri.A, ri.Iv)
		}
		if ri.B >= 0 && !b[ri.B].Contains(mid) {
			t.Errorf("B index %d does not cover %v", ri.B, ri.Iv)
		}
	}
}

func TestRefineEmpty(t *testing.T) {
	if out := Refine(nil, nil); out != nil {
		t.Errorf("refine of empties = %v", out)
	}
	a := []Interval{MustInterval(0, 1, true, true)}
	out := Refine(a, nil)
	if len(out) != 1 || out[0].A != 0 || out[0].B != -1 || out[0].Iv != a[0] {
		t.Errorf("one-sided refine = %v", out)
	}
}

func TestRefineClosureBoundaries(t *testing.T) {
	// [0,2) meets (2,4]: the instant 2 belongs to neither and must be
	// absent from the partition.
	a := []Interval{MustInterval(0, 2, true, false)}
	b := []Interval{MustInterval(2, 4, false, true)}
	out := Refine(a, b)
	for _, ri := range out {
		if ri.Iv.Contains(2) {
			t.Errorf("instant 2 wrongly covered by %v", ri.Iv)
		}
	}
	// [0,2] meets [2,4]: instant 2 is in both; the partition must have a
	// piece containing 2 with membership in A and B.
	a = []Interval{MustInterval(0, 2, true, true)}
	b = []Interval{MustInterval(2, 4, true, true)}
	out = Refine(a, b)
	found := false
	for _, ri := range out {
		if ri.Iv.Contains(2) {
			found = true
			if ri.A != 0 || ri.B != 0 {
				t.Errorf("at 2: membership (%d,%d)", ri.A, ri.B)
			}
		}
	}
	if !found {
		t.Error("instant 2 missing from partition")
	}
}

func TestRefineProperty(t *testing.T) {
	// Random canonical period pairs: the refinement must cover exactly
	// the union and have correct memberships everywhere.
	mk := func(raw []int8) Periods {
		var ivs []Interval
		for k := 0; k+1 < len(raw); k += 2 {
			s, e := raw[k], raw[k+1]
			if s > e {
				s, e = e, s
			}
			ivs = append(ivs, Closed(Instant(s), Instant(e)))
		}
		return MustPeriods(ivs...)
	}
	f := func(raw1, raw2 []int8, probe int8) bool {
		p, q := mk(raw1), mk(raw2)
		out := Refine(p.Intervals(), q.Intervals())
		t0 := Instant(probe)
		var got *RefinementInterval
		for k := range out {
			if out[k].Iv.Contains(t0) {
				if got != nil {
					return false // overlap in partition
				}
				got = &out[k]
			}
		}
		inP, inQ := p.Contains(t0), q.Contains(t0)
		if (got != nil) != (inP || inQ) {
			return false
		}
		if got != nil && ((got.A >= 0) != inP || (got.B >= 0) != inQ) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestIntervalUnionIntersectMembershipProperty(t *testing.T) {
	mkIv := func(s, e int8, lc, rc bool) (Interval, bool) {
		lo, hi := s, e
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			lc, rc = true, true
		}
		iv, err := NewInterval(Instant(lo), Instant(hi), lc, rc)
		return iv, err == nil
	}
	f := func(s1, e1, s2, e2 int8, lc1, rc1, lc2, rc2 bool, probe int8) bool {
		a, ok1 := mkIv(s1, e1, lc1, rc1)
		b, ok2 := mkIv(s2, e2, lc2, rc2)
		if !ok1 || !ok2 {
			return true
		}
		t0 := Instant(probe)
		if got, ok := a.Intersect(b); ok {
			if got.Contains(t0) != (a.Contains(t0) && b.Contains(t0)) {
				return false
			}
		} else if a.Contains(t0) && b.Contains(t0) {
			return false
		}
		if got, ok := a.Union(b); ok {
			want := a.Contains(t0) || b.Contains(t0)
			// The union interval may cover gap instants only when the
			// inputs are adjacent or overlapping (which ok guarantees),
			// so membership must match exactly.
			if got.Contains(t0) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
