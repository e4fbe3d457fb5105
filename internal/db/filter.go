package db

import (
	"fmt"
	"sync"
	"time"

	"movingdb/internal/moving"
)

// The filter step of the executor. Two lifted predicates make up the
// join workload — "was the point ever inside the region" and "did the
// two points ever come within c" — and for both the moving package can
// tell from bounding boxes that a pair never qualifies. bind recognises
// the shapes once per query and wraps them in a guard; per row the guard
// asks the shape's candidate test on the whole-value boxes, and only for
// a candidate walks the two unit arrays, filtering per piece and running
// the Section 5 kernels on the pieces the boxes leave. A guard yields
// exactly what its kernels would have, so it is valid wherever the
// expression stands (under NOT or OR, in a projection, in ORDER BY), and
// rows keep nested-loop order. The box tests all live in the moving
// package; the guard only picks the pair's summaries and counts.

// relBounds holds the filter summaries of a relation: per mpoint or
// mregion column, one summary per tuple, in tuple order. It lives
// beside the tuples, is built by the first query that binds a guard on
// the relation and is discarded by Insert.
type relBounds struct {
	once    sync.Once
	points  [][]moving.PointBounds  // by column; nil unless the column is an mpoint
	regions [][]moving.RegionBounds // by column; nil unless the column is an mregion
}

// bounds returns the relation's filter summaries, building them on
// first use. Concurrent first queries build them once.
func (r *Relation) bounds() *relBounds {
	b := &r.sum
	b.once.Do(func() {
		b.points = make([][]moving.PointBounds, len(r.Schema))
		b.regions = make([][]moving.RegionBounds, len(r.Schema))
		for c, col := range r.Schema {
			switch col.Type {
			case TMPoint:
				pbs := make([]moving.PointBounds, len(r.tuples))
				for i, t := range r.tuples {
					pbs[i] = t[c].(moving.MPoint).Bounds()
				}
				b.points[c] = pbs
			case TMRegion:
				rbs := make([]moving.RegionBounds, len(r.tuples))
				for i, t := range r.tuples {
					rbs[i] = t[c].(moving.MRegion).Bounds()
				}
				b.regions[c] = rbs
			}
		}
	})
	return b
}

// filterShape names a guarded predicate shape; it indexes the per-query
// outcome counts and labels them in the metrics.
type filterShape int

const (
	shapeInside filterShape = iota // sometimes(inside(mpoint, mregion))
	shapeWithin                    // min / val(initial(atmin)) of distance(mpoint, mpoint), compared with a literal
	numShapes
)

var shapeNames = [numShapes]string{"inside", "within"}

// filterCounts tallies a query's filter outcomes for one shape in plain
// ints; QueryContext flushes them to the metrics registry once.
type filterCounts struct {
	checked   int
	skippedAt [moving.NoUnit + 1]int // by verdict; [moving.MayHold] stays 0
}

// guard is a bound predicate of a filtered shape over two column slots.
// The moving package filters and refines each shape in one walk and the
// guard yields its answer, which is what the kernels yield: for a pair
// the boxes exclude, false — a comparison with ⊥ (no common lifetime), a
// minimum above the literal. inner is the predicate as bound; a within
// walk that cannot decide a pair evaluates it, and it is kept for
// String() and for the debugcheck re-run.
type guard struct {
	inner   node
	shape   filterShape
	a, b    slot
	c       float64 // shapeWithin: the distance literal
	points  [2][]moving.PointBounds
	regions []moving.RegionBounds // shapeInside: summaries of b's column
}

func (g *guard) String() string { return g.inner.String() }

func (g *guard) eval(q *queryEnv) (any, error) { return q.evalGuard(g) }

// candidate is the guard's whole-value test on the pair of rows ra of
// a's relation and rb of b's: false when the boxes alone refuse it.
func (g *guard) candidate(ra, rb int) bool {
	if g.shape == shapeInside {
		return moving.InsideCandidate(&g.points[0][ra], &g.regions[rb])
	}
	return moving.WithinCandidate(&g.points[0][ra], &g.points[1][rb], g.c)
}

// notStarted is a walk's start before it reached a kernel.
const notStarted time.Duration = -1

// answer runs the guard on the current row's pair. A pair the
// candidate test refuses is answered false, NoObject, without a clock
// read; the row loop has asked the lead guard's test already. A fused
// walk that reached a kernel is the query's call of that operator —
// inside, or distance for a within walk — timed from its first kernel
// call to the end of the walk, as apply times an operator: only with a
// registry. The walk calls the hook that reads the clock, so a pair
// whose pieces the stored boxes all refuse reads none. The operator
// count equals the filter's kernel count; an inside walk cancelled on
// the way counts too, timed from the cancellation when it reached no
// kernel. A within pair the walk leaves undecided runs the bound chain,
// which records its own operators. The summaries go by pointer:
// relBounds does not change them once built.
func (g *guard) answer(q *queryEnv) (any, moving.Verdict, error) {
	ra, rb := q.rows[g.a.from], q.rows[g.b.from]
	if g != q.lead && !g.candidate(ra, rb) {
		return false, moving.NoObject, nil
	}
	pb := &g.points[0][ra]
	start := notStarted
	started := func() { start = q.clock() }
	if g.shape == shapeInside {
		sb := &g.regions[rb]
		p, r := q.tuples[g.a.from][g.a.col].(moving.MPoint), q.tuples[g.b.from][g.b.col].(moving.MRegion)
		hit, v, err := moving.SometimesInsideHook(q.ctx, p, pb, r, sb, started)
		if v == moving.MayHold || err != nil {
			if start == notStarted {
				started() // no kernel ran: a point walked unfiltered, or a cancelled walk
			}
			q.recordOp("inside", start)
		}
		return hit, v, err
	}
	qb := &g.points[1][rb]
	p, p2 := q.tuples[g.a.from][g.a.col].(moving.MPoint), q.tuples[g.b.from][g.b.col].(moving.MPoint)
	hit, v, decided := moving.ComesWithin(p, pb, p2, qb, g.c, started)
	if !decided {
		got, err := g.inner.eval(q)
		return got, v, err
	}
	if v == moving.MayHold {
		q.recordOp("distance", start)
	}
	return hit, v, nil
}

// evalGuard answers a guarded predicate for the current row.
func (q *queryEnv) evalGuard(g *guard) (any, error) {
	n := &q.filter[g.shape]
	n.checked++
	hit, v, err := g.answer(q)
	if err != nil {
		return nil, err
	}
	if v != moving.MayHold {
		n.skippedAt[v]++
	}
	if debugFilter {
		if err := q.recheck(g, hit, v); err != nil {
			return nil, err
		}
	}
	return hit, nil
}

// admit runs the lead guard's candidate test in the row loop, on the
// current rows. A pair it refuses is answered as evalGuard answers one:
// counted as checked and skipped by object.
func (q *queryEnv) admit() bool {
	g := q.lead
	if g.candidate(q.rows[g.a.from], q.rows[g.b.from]) {
		return true
	}
	n := &q.filter[g.shape]
	n.checked++
	n.skippedAt[moving.NoObject]++
	return false
}

// recheck is debugcheck's second opinion on a pair the guard answered
// hit with verdict v: it evaluates the expression the guard stands for
// on the current row and panics unless the two agree. The error is a
// cancellation mid-kernel, which leaves nothing to compare.
func (q *queryEnv) recheck(g *guard, hit any, v moving.Verdict) error {
	got, err := g.inner.eval(q)
	if err != nil {
		return err
	}
	if got != hit {
		panic(fmt.Sprintf("debugcheck: db guard answered %v (verdict %d) for %v on rows %v, but the kernels yield %v", hit, v, g.inner, q.rows, got))
	}
	return nil
}

// flushFilterCounts reports the query's filter outcomes to the metrics
// registry: one call per shape the query exercised.
func (q *queryEnv) flushFilterCounts() {
	for s, n := range q.filter {
		if n.checked > 0 {
			q.rec.RecordFilter(shapeNames[s], n.checked, n.skippedAt[moving.NoObject], n.skippedAt[moving.NoUnit])
		}
	}
}

// applyOf returns e as the bound call of the named operation on the
// given argument types — a match on the overload bind selected, not on
// the query text.
func applyOf(e node, fn string, args ...AttrType) (*apply, bool) {
	ap, ok := e.(*apply)
	if !ok || ap.fn != fn || len(ap.ov.args) != len(args) {
		return nil, false
	}
	for i, t := range args {
		if ap.ov.args[i] != t {
			return nil, false
		}
	}
	return ap, true
}

// slotPair returns the two arguments of a bound binary call when both
// are plain column slots.
func slotPair(ap *apply) (a, b slot, ok bool) {
	sa, okA := ap.args[0].(*slot)
	sb, okB := ap.args[1].(*slot)
	if !okA || !okB {
		return a, b, false
	}
	return *sa, *sb, true
}

// numConst returns the value of a numeric literal, plain or negated.
func numConst(e node) (float64, bool) {
	sign := 1.0
	if neg, isNeg := e.(*neg[float64]); isNeg {
		sign, e = -1, neg.e
	}
	lit, ok := e.(literal)
	v, isNum := lit.v.(float64)
	return sign * v, ok && isNum
}

// minDistance matches the two spellings of the closest approach of two
// point columns: min(distance(a, b)) and val(initial(atmin(distance(a, b)))).
func minDistance(e node) (a, b slot, ok bool) {
	inner, isMin := applyOf(e, "min", TMReal)
	if !isMin {
		val, isVal := applyOf(e, "val", TIReal)
		if !isVal {
			return a, b, false
		}
		initial, isInitial := applyOf(val.args[0], "initial", TMReal)
		if !isInitial {
			return a, b, false
		}
		if inner, ok = applyOf(initial.args[0], "atmin", TMReal); !ok {
			return a, b, false
		}
	}
	dist, isDist := applyOf(inner.args[0], "distance", TMPoint, TMPoint)
	if !isDist {
		return a, b, false
	}
	return slotPair(dist)
}

// boundsOf returns the summaries of the relation a slot reads from.
func (q *queryEnv) boundsOf(s slot) *relBounds { return q.binds[s.from].rel.bounds() }

// guarded wraps a freshly bound node in a guard when it has one of the
// filtered shapes, and returns it unchanged otherwise.
func (q *queryEnv) guarded(e node) node {
	switch ex := e.(type) {
	case *apply:
		if _, ok := applyOf(ex, "sometimes", TMBool); !ok {
			return e
		}
		inside, ok := applyOf(ex.args[0], "inside", TMPoint, TMRegion)
		if !ok {
			return e
		}
		a, b, ok := slotPair(inside)
		if !ok {
			return e
		}
		g := &guard{inner: e, shape: shapeInside, a: a, b: b}
		g.points[0] = q.boundsOf(a).points[a.col]
		g.regions = q.boundsOf(b).regions[b.col]
		return g
	case *comparison:
		// min < c, min <= c, and the mirrored c > min, c >= min.
		dist, lit := ex.l, ex.r
		switch ex.op {
		case "<", "<=":
		case ">", ">=":
			dist, lit = ex.r, ex.l
		default:
			return e
		}
		c, ok := numConst(lit)
		if !ok {
			return e
		}
		a, b, ok := minDistance(dist)
		if !ok {
			return e
		}
		g := &guard{inner: e, shape: shapeWithin, a: a, b: b, c: c}
		g.points[0] = q.boundsOf(a).points[a.col]
		g.points[1] = q.boundsOf(b).points[b.col]
		return g
	}
	return e
}
