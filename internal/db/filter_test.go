package db

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

// The executor's guards may change what a query costs, never what it
// answers: every filtered spelling is held to a brute-force loop that
// calls the Section 5 kernels for every pair, over seeded random
// catalogs. Under -tags=debugcheck the same runs re-check, inside the
// executor, every pair a guard answered — skipped or not.

// plane and storm are the brute-force side's view of the catalog.
type plane struct {
	airline, id string
	flight      moving.MPoint
}

type storm struct {
	name   string
	extent moving.MRegion
}

// filterCatalog builds a seeded catalog with what the filters branch
// on: flights of the usual shape, short walks that start late (disjoint
// and barely touching lifetimes), storms with and without an eye that
// begin at different times, and one empty storm and one empty flight.
func filterCatalog(seed int64) (Catalog, []plane, []storm) {
	g := workload.New(seed)
	rng := rand.New(rand.NewSource(seed))
	var ps []plane
	for _, f := range g.Flights(10+rng.Intn(8), 200) {
		ps = append(ps, plane{f.Airline, f.ID, f.Flight})
	}
	for i := 0; i < 6; i++ {
		walk := g.RandomTrajectory(temporal.Instant(rng.Intn(400)), 1+rng.Intn(12), 4, 12)
		ps = append(ps, plane{workload.Airlines[i%2], fmt.Sprintf("W%02d", i), walk})
	}
	ps = append(ps, plane{"Ghost", "G00", moving.MPoint{}})
	var ss []storm
	for i := 0; i < 3+rng.Intn(3); i++ {
		ss = append(ss, storm{fmt.Sprintf("storm%02d", i), g.Storm(temporal.Instant(rng.Intn(150)), 8+rng.Intn(40), 10, 6)})
	}
	ss = append(ss, storm{"eye", g.StormWithEye(temporal.Instant(rng.Intn(100)), 16, 10, 6)})
	ss = append(ss, storm{"void", moving.MRegion{}})

	planes := NewRelation("planes", Schema{{Name: "airline", Type: TString}, {Name: "id", Type: TString}, {Name: "flight", Type: TMPoint}})
	for _, p := range ps {
		planes.MustInsert(Tuple{p.airline, p.id, p.flight})
	}
	storms := NewRelation("storms", Schema{{Name: "name", Type: TString}, {Name: "extent", Type: TMRegion}})
	for _, s := range ss {
		storms.MustInsert(Tuple{s.name, s.extent})
	}
	return Catalog{"planes": planes, "storms": storms}, ps, ss
}

// The kernels, as the unfiltered executor composes them.

func everInside(p plane, s storm) bool { return p.flight.Inside(s.extent).Sometimes() }

// closest is val(initial(atmin(distance(p, q)))); ok is false for ⊥.
func closest(p, q plane) (float64, bool) {
	first, ok := p.flight.Distance(q.flight).AtMin().Initial()
	return first.Val, ok
}

// minDist is min(distance(p, q)); ok is false for ⊥.
func minDist(p, q plane) (float64, bool) {
	mn, _, ok := p.flight.Distance(q.flight).Min()
	return mn, ok
}

func rowsOf(t *testing.T, res *Relation) []string {
	t.Helper()
	out := make([]string, 0, res.Len())
	for _, tu := range res.Scan() {
		out = append(out, fmt.Sprint([]any(tu)...))
	}
	return out
}

// filterCase is one statement, its brute-force answer and the number of
// pairs each guard must have been asked about (which shows the guard was
// bound, not silently skipped).
type filterCase struct {
	sql            string
	want           []string
	inside, within int64
}

func filterCases(rng *rand.Rand, ps []plane, ss []storm) []filterCase {
	c := 5 + 40*rng.Float64()
	lit := fmt.Sprintf("%.3f", c)
	fmt.Sscan(lit, &c) // the executor sees the literal as printed
	ps2, pss := int64(len(ps)*len(ps)), int64(len(ps)*len(ss))
	var cases []filterCase

	pairs := func(keep func(p plane, s storm) bool, render func(p plane, s storm) string) []string {
		var out []string
		for _, p := range ps {
			for _, s := range ss {
				if keep(p, s) {
					out = append(out, render(p, s))
				}
			}
		}
		return out
	}
	idName := func(p plane, s storm) string { return fmt.Sprint(p.id, s.name) }
	// Template a, its negation, and the guard in a projection.
	cases = append(cases,
		filterCase{"SELECT p.id, s.name FROM planes p, storms s WHERE sometimes(inside(p.flight, s.extent)) AND p.id <> 'none'",
			pairs(everInside, idName), pss, 0},
		filterCase{"SELECT p.id, s.name FROM planes p, storms s WHERE NOT sometimes(inside(p.flight, s.extent))",
			pairs(func(p plane, s storm) bool { return !everInside(p, s) }, idName), pss, 0},
		filterCase{"SELECT p.id, s.name, Sometimes(Inside(p.flight, s.extent)) AS hit FROM planes p, storms s",
			pairs(func(plane, storm) bool { return true }, func(p plane, s storm) string { return fmt.Sprint(p.id, s.name, everInside(p, s)) }), pss, 0},
	)

	self := func(keep func(p, q plane) bool) []string {
		var out []string
		for _, p := range ps {
			for _, q := range ps {
				if keep(p, q) {
					out = append(out, fmt.Sprint(p.id, q.id))
				}
			}
		}
		return out
	}
	less := func(f func(p, q plane) (float64, bool), orEqual bool) func(p, q plane) bool {
		return func(p, q plane) bool {
			v, ok := f(p, q)
			return ok && (v < c || (orEqual && v <= c))
		}
	}
	half := int64(len(ps) * (len(ps) - 1) / 2) // pairs with p.id < q.id: ids are distinct
	selfSQL := "SELECT p.id, q.id FROM planes p, planes q WHERE "
	// Template b and the spellings of the same predicate.
	cases = append(cases,
		filterCase{selfSQL + "p.id < q.id AND val(initial(atmin(distance(p.flight, q.flight)))) < " + lit,
			self(func(p, q plane) bool { return p.id < q.id && less(closest, false)(p, q) }), 0, half},
		filterCase{selfSQL + "val(initial(atmin(distance(p.flight, q.flight)))) <= " + lit,
			self(less(closest, true)), 0, ps2},
		filterCase{selfSQL + lit + " > VAL(INITIAL(ATMIN(DISTANCE(p.flight, q.flight))))",
			self(less(closest, false)), 0, ps2},
		filterCase{selfSQL + "min(distance(p.flight, q.flight)) < " + lit,
			self(less(minDist, false)), 0, ps2},
		filterCase{selfSQL + lit + " >= min(distance(p.flight, q.flight))",
			self(less(minDist, true)), 0, ps2},
		filterCase{selfSQL + "NOT (min(distance(p.flight, q.flight)) < " + lit + ")",
			self(func(p, q plane) bool { return !less(minDist, false)(p, q) }), 0, ps2},
		filterCase{selfSQL + "min(distance(p.flight, q.flight)) < " + lit + " OR p.airline = 'Ghost'",
			self(func(p, q plane) bool { return less(minDist, false)(p, q) || p.airline == "Ghost" }), 0, ps2},
		filterCase{selfSQL + "min(distance(p.flight, q.flight)) < -1",
			nil, 0, ps2},
		filterCase{selfSQL + "min(distance(p.flight, q.flight)) <= 0",
			self(func(p, q plane) bool { v, ok := minDist(p, q); return ok && v <= 0 }), 0, ps2},
	)

	// Aggregates run through the same row loop.
	count := func(rows []string) []string { return []string{fmt.Sprint(len(rows))} }
	cases = append(cases,
		filterCase{"SELECT count(*) FROM planes p, planes q WHERE min(distance(p.flight, q.flight)) < " + lit,
			count(self(less(minDist, false))), 0, ps2},
	)
	tally := map[string]int{}
	var airlines []string
	for _, p := range ps {
		for _, s := range ss {
			if everInside(p, s) {
				if tally[p.airline]++; tally[p.airline] == 1 {
					airlines = append(airlines, p.airline)
				}
			}
		}
	}
	var grouped []string
	for _, a := range airlines {
		grouped = append(grouped, fmt.Sprint(a, tally[a]))
	}
	cases = append(cases, filterCase{"SELECT p.airline, count(*) AS n FROM planes p, storms s WHERE sometimes(inside(p.flight, s.extent)) GROUP BY p.airline",
		grouped, pss, 0})

	// Template d: a guard beside an unguarded use of the same kernel,
	// ORDER BY and LIMIT.
	limit := 3 + rng.Intn(6)
	target := ss[rng.Intn(len(ss))]
	type exposed struct {
		id       string
		exposure float64
	}
	var ex []exposed
	for _, p := range ps {
		if everInside(p, target) {
			ex = append(ex, exposed{p.id, p.flight.Inside(target.extent).TrueDuration()})
		}
	}
	sort.SliceStable(ex, func(i, j int) bool { return ex[i].exposure > ex[j].exposure })
	var top []string
	for _, e := range ex[:min(limit, len(ex))] {
		top = append(top, fmt.Sprint(e.id, e.exposure))
	}
	cases = append(cases, filterCase{fmt.Sprintf("SELECT p.id, duration(inside(p.flight, s.extent)) AS exposure FROM planes p, storms s WHERE s.name = '%s' AND sometimes(inside(p.flight, s.extent)) AND p.id <> 'none' ORDER BY exposure DESC LIMIT %d", target.name, limit),
		top, int64(len(ps)), 0})

	// A guard as a sort key.
	hitFirst := pairs(func(plane, storm) bool { return true }, func(p plane, s storm) string { return fmt.Sprint(everInside(p, s), p.id, s.name) })
	sort.SliceStable(hitFirst, func(i, j int) bool {
		return strings.HasPrefix(hitFirst[i], "true") && !strings.HasPrefix(hitFirst[j], "true")
	})
	cases = append(cases,
		filterCase{"SELECT sometimes(inside(p.flight, s.extent)) AS hit, p.id, s.name FROM planes p, storms s ORDER BY sometimes(inside(p.flight, s.extent)) DESC",
			hitFirst, 2 * pss, 0}, // once for the projection, once for the key
		filterCase{"SELECT sometimes(inside(p.flight, s.extent)) AS hit, p.id, s.name FROM planes p, storms s ORDER BY hit DESC",
			hitFirst, pss, 0}, // an alias as the key reads the projected column
	)
	return cases
}

func TestFilteredQueriesMatchBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 2000, 31337} {
		cat, ps, ss := filterCatalog(seed)
		for _, tc := range filterCases(rand.New(rand.NewSource(seed)), ps, ss) {
			m := obs.New(0)
			res, err := QueryContext(obs.NewContext(context.Background(), m), cat, tc.sql)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, tc.sql, err)
			}
			if got := rowsOf(t, res); !slices.Equal(got, tc.want) {
				t.Errorf("seed %d: %s\n got  %d rows %v\n want %d rows %v", seed, tc.sql, len(got), got, len(tc.want), tc.want)
			}
			f := m.Snapshot().Filters
			if f["inside"].Checked != tc.inside || f["within"].Checked != tc.within {
				t.Errorf("seed %d: %s\n guards checked %d inside and %d within pairs, want %d and %d", seed, tc.sql, f["inside"].Checked, f["within"].Checked, tc.inside, tc.within)
			}
			for shape, n := range f {
				if n.Kernel != n.Checked-n.SkippedObject-n.SkippedUnit || n.Kernel < 0 {
					t.Errorf("seed %d: %s: %s outcomes do not add up: %+v", seed, tc.sql, shape, n)
				}
			}
		}
	}
}

// TestFilterCountsReachMetrics: the outcome counts of a query arrive in
// the registry, per shape and level, and say how much kernel work the
// filter saved.
func TestFilterCountsReachMetrics(t *testing.T) {
	cat, ps, ss := filterCatalog(2000)
	m := obs.New(0)
	ctx := obs.NewContext(context.Background(), m)
	if _, err := QueryContext(ctx, cat, "SELECT p.id FROM planes p, storms s WHERE sometimes(inside(p.flight, s.extent))"); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	got := snap.Filters["inside"]
	if got.Checked != int64(len(ps)*len(ss)) || got.SkippedObject == 0 || got.SkippedUnit == 0 || got.Kernel == 0 {
		t.Errorf("inside outcomes = %+v over %d pairs: every level should have fired", got, len(ps)*len(ss))
	}
	// The fused walk is the query's inside operator and builds no moving
	// bool for a sometimes to read. (A debugcheck build also evaluates the
	// composed expression for every pair.)
	if ran := snap.Operators["inside"].Count; ran != got.Kernel && !debugFilter {
		t.Errorf("the inside kernel ran %d times, the filter passed %d pairs", ran, got.Kernel)
	}
	if _, ok := snap.Operators["sometimes"]; ok && !debugFilter {
		t.Errorf("a guarded sometimes(inside) recorded a sometimes operator: %+v", snap.Operators)
	}
	if _, ok := snap.Filters["within"]; ok {
		t.Errorf("a shape the query does not use was reported: %+v", snap.Filters)
	}

	// The within walk is the query's distance operator, and a pair it
	// decides runs no atmin, initial or val. (A flight paired with itself
	// meets itself, which the walk leaves to the chain; template b's
	// p.id < q.id pairs distinct flights.)
	m = obs.New(0)
	ctx = obs.NewContext(context.Background(), m)
	if _, err := QueryContext(ctx, cat, "SELECT p.id, q.id FROM planes p, planes q WHERE p.id < q.id AND val(initial(atmin(distance(p.flight, q.flight)))) < 20"); err != nil {
		t.Fatal(err)
	}
	snap = m.Snapshot()
	within := snap.Filters["within"]
	half := int64(len(ps) * (len(ps) - 1) / 2)
	if within.Checked != half || within.SkippedObject == 0 || within.SkippedUnit == 0 || within.Kernel == 0 {
		t.Errorf("within outcomes = %+v over %d pairs: every level should have fired", within, half)
	}
	if ran := snap.Operators["distance"].Count; ran != within.Kernel && !debugFilter {
		t.Errorf("the distance kernel ran %d times, the filter passed %d pairs", ran, within.Kernel)
	}
	for i, p := range ps {
		pb := p.flight.Bounds()
		for _, q := range ps[i+1:] {
			qb := q.flight.Bounds()
			if _, _, decided := moving.ComesWithin(p.flight, &pb, q.flight, &qb, 20, nil); !decided {
				t.Fatalf("the walk leaves %s × %s undecided: pick another distance", p.id, q.id)
			}
		}
	}
	for _, op := range []string{"atmin", "initial", "val"} {
		if _, ok := snap.Operators[op]; ok && !debugFilter {
			t.Errorf("every pair was decided, yet the query recorded %s: %+v", op, snap.Operators)
		}
	}
}

// TestFilterCountsOnBenchCatalog pins what the filters leave of templates
// a and b on the analytics workload's catalog: fusing a unit pass with
// its refinement must not move a pair from one outcome to another.
// Under -tags=debugcheck every guarded pair is re-checked against the
// composed kernels as well.
func TestFilterCountsOnBenchCatalog(t *testing.T) {
	cat := analyticsCatalog()
	for _, tc := range []struct {
		name, sql, shape string
		rows             int
		want             obs.FilterSnapshot
	}{
		{"template a", templateA, "inside", 499, obs.FilterSnapshot{Checked: 3200, SkippedObject: 1169, SkippedUnit: 1337, Kernel: 694}},
		{"template b", templateB, "within", 588, obs.FilterSnapshot{Checked: 19900, SkippedObject: 11915, SkippedUnit: 6283, Kernel: 1702}},
	} {
		m := obs.New(0)
		res, err := QueryContext(obs.NewContext(context.Background(), m), cat, tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Snapshot().Filters[tc.shape]; got != tc.want || res.Len() != tc.rows {
			t.Errorf("%s: %d rows, filters.%s = %+v; want %d rows, %+v", tc.name, res.Len(), tc.shape, got, tc.rows, tc.want)
		}
	}
}

// TestUnfilteredShapesStayUnguarded: the guards match the bound
// overloads of exactly the shapes they are proven for.
func TestUnfilteredShapesStayUnguarded(t *testing.T) {
	cat, _, _ := filterCatalog(1)
	for _, sql := range []string{
		"SELECT p.id FROM planes p, storms s WHERE always(inside(p.flight, s.extent))",
		"SELECT p.id FROM planes p, planes q WHERE max(distance(p.flight, q.flight)) < 10",
		"SELECT p.id FROM planes p, planes q WHERE min(distance(p.flight, q.flight)) > 10",
		"SELECT p.id FROM planes p, planes q WHERE min(distance(p.flight, q.flight)) < length(trajectory(q.flight))",
		"SELECT p.id FROM planes p, planes q WHERE min(distance(when(p.flight, inside(p.flight, union(trajectory(q.flight), trajectory(q.flight)))), q.flight)) < 10",
		"SELECT p.id FROM planes p, planes q WHERE val(final(atmin(distance(p.flight, q.flight)))) < 10",
	} {
		m := obs.New(0)
		if _, err := QueryContext(obs.NewContext(context.Background(), m), cat, sql); err != nil {
			continue // a shape the dialect rejects is not guarded either
		}
		if f := m.Snapshot().Filters; len(f) != 0 {
			t.Errorf("%s: guarded as %+v", sql, f)
		}
	}
}

// TestSummariesFollowInsert: summaries are per relation state — a tuple
// inserted after a query built them is seen by the next query.
func TestSummariesFollowInsert(t *testing.T) {
	cat, ps, ss := filterCatalog(7)
	const sql = "SELECT count(*) FROM planes p, storms s WHERE sometimes(inside(p.flight, s.extent))"
	count := func() int64 {
		t.Helper()
		res, err := Query(cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		return res.Scan()[0][0].(int64)
	}
	before := count()
	// A copy of a flight that meets a storm adds exactly its own hits.
	var add plane
	hits := int64(0)
	for _, p := range ps {
		n := int64(0)
		for _, s := range ss {
			if everInside(p, s) {
				n++
			}
		}
		if n > hits {
			add, hits = p, n
		}
	}
	if hits == 0 {
		t.Fatal("no flight meets a storm")
	}
	cat["planes"].MustInsert(Tuple{add.airline, "copy", add.flight})
	if after := count(); after != before+hits {
		t.Errorf("count after insert = %d, want %d + %d", after, before, hits)
	}
}

// TestConcurrentFirstQueries: the first queries against a fresh relation
// race to build its summaries; run under -race.
func TestConcurrentFirstQueries(t *testing.T) {
	cat, _, _ := filterCatalog(42)
	queries := []string{
		"SELECT count(*) FROM planes p, storms s WHERE sometimes(inside(p.flight, s.extent))",
		"SELECT count(*) FROM planes p, planes q WHERE min(distance(p.flight, q.flight)) < 20",
	}
	want := make([]int64, len(queries))
	{
		ref, _, _ := filterCatalog(42)
		for i, sql := range queries {
			res, err := Query(ref, sql)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res.Scan()[0][0].(int64)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := Query(cat, queries[w%2])
			if err != nil {
				t.Error(err)
				return
			}
			if got := res.Scan()[0][0].(int64); got != want[w%2] {
				t.Errorf("worker %d: count = %d, want %d", w, got, want[w%2])
			}
		}(w)
	}
	wg.Wait()
}
