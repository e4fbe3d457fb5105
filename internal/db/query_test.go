package db

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

func testCatalog(t *testing.T) Catalog {
	t.Helper()
	planes := NewRelation("planes", Schema{
		{Name: "airline", Type: TString},
		{Name: "id", Type: TString},
		{Name: "flight", Type: TMPoint},
	})
	for _, f := range workload.New(2000).Flights(30, 200) {
		planes.MustInsert(Tuple{f.Airline, f.ID, f.Flight})
	}
	storms := NewRelation("storms", Schema{
		{Name: "name", Type: TString},
		{Name: "extent", Type: TMRegion},
	})
	g := workload.New(77)
	storms.MustInsert(Tuple{"Klaus", g.Storm(0, 30, 10, 10)})
	storms.MustInsert(Tuple{"Lothar", g.Storm(50, 30, 12, 10)})
	return Catalog{"planes": planes, "storms": storms}
}

func TestLexer(t *testing.T) {
	toks, err := lex(`SELECT a.b, length(x) FROM r WHERE a <> 'it''s' AND v >= 1.5e2`)
	if err == nil {
		// 'it''s' lexes as 'it' followed by 's' — acceptable for this
		// dialect; just ensure the full token stream terminates.
		if toks[len(toks)-1].kind != tokEOF {
			t.Error("missing EOF token")
		}
	}
	if _, err := lex(`SELECT 'unterminated`); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex("SELECT @"); err == nil {
		t.Error("bad character accepted")
	}
}

func TestParserErrors(t *testing.T) {
	for _, q := range []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM r WHERE",
		"SELECT f( FROM r",
		"SELECT a FROM r extra garbage ,",
	} {
		if _, err := parseQuery(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestQuery1Paper(t *testing.T) {
	// The first query of Section 2, verbatim shape.
	cat := testCatalog(t)
	res, err := Query(cat, `
		SELECT airline, id
		FROM planes
		WHERE airline = 'Lufthansa' AND length(trajectory(flight)) > 500`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.String() != "(airline: string, id: string)" {
		t.Errorf("schema = %v", res.Schema)
	}
	// Cross-check against direct evaluation.
	planes := cat["planes"]
	want := 0
	for _, tu := range planes.Scan() {
		if Get[string](planes, tu, "airline") == "Lufthansa" &&
			Get[moving.MPoint](planes, tu, "flight").Length() > 500 {
			want++
		}
	}
	if res.Len() != want {
		t.Errorf("rows = %d, want %d", res.Len(), want)
	}
	for _, tu := range res.Scan() {
		if tu[0].(string) != "Lufthansa" {
			t.Errorf("non-Lufthansa row %v", tu)
		}
	}
}

func TestQuery2PaperJoin(t *testing.T) {
	// The spatio-temporal join of Section 2, verbatim shape.
	cat := testCatalog(t)
	res, err := Query(cat, `
		SELECT p.airline, p.id, q.airline, q.id
		FROM planes p, planes q
		WHERE p.id < q.id
		  AND val(initial(atmin(distance(p.flight, q.flight)))) < 25`)
	if err != nil {
		t.Fatal(err)
	}
	planes := cat["planes"]
	want := 0
	for _, a := range planes.Scan() {
		for _, b := range planes.Scan() {
			if Get[string](planes, a, "id") >= Get[string](planes, b, "id") {
				continue
			}
			d := Get[moving.MPoint](planes, a, "flight").Distance(Get[moving.MPoint](planes, b, "flight"))
			if first, ok := d.AtMin().Initial(); ok && first.Val < 25 {
				want++
			}
		}
	}
	if res.Len() != want {
		t.Errorf("rows = %d, want %d", res.Len(), want)
	}
	// Duplicate output names get disambiguated.
	if res.Schema[0].Name == res.Schema[2].Name {
		t.Errorf("duplicate column names in %v", res.Schema)
	}
}

func TestQueryStormJoin(t *testing.T) {
	cat := testCatalog(t)
	res, err := Query(cat, `
		SELECT s.name, p.id, duration(inside(p.flight, s.extent)) AS exposure
		FROM planes p, storms s
		WHERE sometimes(inside(p.flight, s.extent))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Index("exposure") != 2 || res.Schema[2].Type != TReal {
		t.Fatalf("schema = %v", res.Schema)
	}
	for _, tu := range res.Scan() {
		if tu[2].(float64) <= 0 {
			t.Errorf("zero exposure row %v", tu)
		}
	}
}

func TestQueryStar(t *testing.T) {
	cat := testCatalog(t)
	res, err := Query(cat, "SELECT * FROM storms")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || len(res.Schema) != 2 {
		t.Errorf("star = %v (%d rows)", res.Schema, res.Len())
	}
	if res.Schema[1].Type != TMRegion {
		t.Error("mregion column lost its type")
	}
}

func TestQueryExpressions(t *testing.T) {
	cat := testCatalog(t)
	res, err := Query(cat, `
		SELECT id, travelled(flight) - length(trajectory(flight)) AS backtrack,
		       max(speed(flight)) AS vmax
		FROM planes
		WHERE NOT (airline = 'ANA' OR airline = 'Qantas') AND max(speed(flight)) >= 5`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range res.Scan() {
		if tu[1].(float64) < -1e-6 {
			t.Errorf("negative backtrack %v", tu[1])
		}
		if tu[2].(float64) < 5 {
			t.Errorf("speed filter leaked %v", tu[2])
		}
	}
	// Arithmetic, negation, parens, booleans.
	res, err = Query(cat, `SELECT -(1 + 2 * 3) / 7 AS v, TRUE AS t FROM storms WHERE name <> ''`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Scan()[0][0].(float64) != -1 || res.Scan()[0][1].(bool) != true {
		t.Errorf("expr result = %v", res.Scan())
	}
}

func TestQueryTypeErrors(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct {
		q    string
		want error
	}{
		{"SELECT nosuch FROM planes", ErrType},
		{"SELECT id FROM planes WHERE id", ErrType},
		{"SELECT id FROM planes WHERE length(flight) > 1", ErrType},
		{"SELECT id FROM planes WHERE frobnicate(flight)", ErrNoFunction},
		{"SELECT initial(speed(flight)) FROM planes", ErrType},
		{"SELECT id FROM planes WHERE id + 1 > 0", ErrType},
		{"SELECT id FROM nosuchrel", ErrSchema},
		{"SELECT p.id FROM planes p, planes q WHERE id = 'x'", ErrType}, // ambiguous
		{"SELECT flight = flight FROM planes", ErrType},                 // no mpoint comparison
	}
	for _, c := range cases {
		_, err := Query(cat, c.q)
		if !errors.Is(err, c.want) {
			t.Errorf("%q: err = %v, want %v", c.q, err, c.want)
		}
	}
}

func TestQueryDivisionByZero(t *testing.T) {
	cat := testCatalog(t)
	if _, err := Query(cat, "SELECT 1/0 AS x FROM storms"); err == nil {
		t.Error("division by zero accepted")
	}
}

// overflowCatalog is r(x real) holding 1e308 twice: the sum of its rows
// overflows.
func overflowCatalog() Catalog {
	r := NewRelation("r", Schema{{Name: "x", Type: TReal}})
	r.MustInsert(Tuple{1e308})
	r.MustInsert(Tuple{1e308})
	return Catalog{"r": r}
}

// overflowQueries are statements whose arithmetic leaves the finite
// reals: each is a type error, never ±Inf in an answer nor a NaN that a
// comparison reads as equal.
var overflowQueries = []string{
	"SELECT 1e308 * 10.0 FROM r",
	"SELECT sum(x) FROM r",
	"SELECT avg(x) FROM r",
	"SELECT x FROM r WHERE 1e308 * 10.0 - 1e308 * 10.0 = 5.0",
}

func TestQueryArithmeticOverflow(t *testing.T) {
	cat := overflowCatalog()
	for _, q := range overflowQueries {
		res, err := Query(cat, q)
		if !errors.Is(err, ErrType) || !strings.Contains(fmt.Sprint(err), "arithmetic overflow") {
			t.Errorf("%s: err = %v, want an arithmetic overflow type error", q, err)
			if err == nil {
				t.Logf("rows: %v", res.Scan())
			}
		}
	}
	// The finite neighbours of those statements still answer.
	for _, q := range []string{"SELECT 1e307 * 10.0 FROM r", "SELECT max(x) FROM r", "SELECT x FROM r WHERE 1e308 - 1e308 = 0.0"} {
		if res, err := Query(cat, q); err != nil || res.Len() == 0 {
			t.Errorf("%s: err = %v", q, err)
		}
	}
}

// TestQueryIntNegationOverflow: the smallest int64 is its own two's
// complement negation, so -i = i held for it; negating it is an
// arithmetic overflow like a real result outside the finite reals.
func TestQueryIntNegationOverflow(t *testing.T) {
	r := NewRelation("r", Schema{{Name: "i", Type: TInt}})
	r.MustInsert(Tuple{int64(math.MinInt64)})
	cat := Catalog{"r": r}
	for _, q := range []string{
		"SELECT -i AS n, i FROM r WHERE -i = i",
		"SELECT -i AS n FROM r",
	} {
		res, err := Query(cat, q)
		if !errors.Is(err, ErrType) || !strings.Contains(fmt.Sprint(err), "arithmetic overflow") {
			t.Errorf("%s: err = %v, want an arithmetic overflow type error", q, err)
			if err == nil {
				t.Logf("rows: %v", res.Scan())
			}
		}
	}
	// Its neighbour still negates.
	one := NewRelation("r", r.Schema)
	one.MustInsert(Tuple{int64(math.MinInt64 + 1)})
	res, err := Query(Catalog{"r": one}, "SELECT -i AS n FROM r")
	if err != nil || res.Scan()[0][0] != int64(math.MaxInt64) {
		t.Errorf("-(MinInt64+1): %v, %v", res, err)
	}
}

// TestIntimeNamed: the intime(real) that initial and final return is
// named in a type error, not printed as a number.
func TestIntimeNamed(t *testing.T) {
	_, err := Query(testCatalog(t), "SELECT length(initial(speed(flight))) FROM planes")
	if !errors.Is(err, ErrType) || !strings.Contains(fmt.Sprint(err), `no overload of "length" for [intime(real)]`) {
		t.Errorf("err = %v, want no overload of length for [intime(real)]", err)
	}
	if got := TIReal.String(); got != "intime(real)" {
		t.Errorf("TIReal.String() = %q", got)
	}
}

// meetingCatalog is planes(id string, flight mpoint) holding two flights
// that meet at t ≈ 4.52, where the radicand of their unit distance
// rounds below zero.
func meetingCatalog(t testing.TB) Catalog {
	t.Helper()
	planes := NewRelation("planes", Schema{{Name: "id", Type: TString}, {Name: "flight", Type: TMPoint}})
	for _, f := range []struct {
		id      string
		samples []moving.Sample
	}{
		{"a", []moving.Sample{{T: 0, P: geom.Pt(548.30212201912, 359.35178307712)}, {T: 10, P: geom.Pt(638.30212201912, 199.35178307712)}}},
		{"b", []moving.Sample{{T: 0, P: geom.Pt(534.73616269216, 205.60424403823998)}, {T: 10, P: geom.Pt(654.73616269216, 385.60424403824)}}},
	} {
		p, err := moving.MPointFromSamples(f.samples)
		if err != nil {
			t.Fatal(err)
		}
		planes.MustInsert(Tuple{f.id, p})
	}
	return Catalog{"planes": planes}
}

// meetingQueries ask whether the two flights of meetingCatalog came
// within 1 of each other, in every spelling the within guard covers and
// as a plain projection; each answers the one pair and the closest
// approach, which is finite and below 1.
var meetingQueries = []string{
	"SELECT p.id, q.id, val(initial(atmin(distance(p.flight, q.flight)))) AS d FROM planes p, planes q WHERE p.id < q.id AND val(initial(atmin(distance(p.flight, q.flight)))) < 1",
	"SELECT p.id, q.id, val(initial(atmin(distance(p.flight, q.flight)))) AS d FROM planes p, planes q WHERE p.id < q.id AND val(initial(atmin(distance(p.flight, q.flight)))) <= 1",
	"SELECT p.id, q.id, val(initial(atmin(distance(p.flight, q.flight)))) AS d FROM planes p, planes q WHERE p.id < q.id AND min(distance(p.flight, q.flight)) < 1",
	"SELECT p.id, q.id, val(initial(atmin(distance(p.flight, q.flight)))) AS d FROM planes p, planes q WHERE p.id < q.id",
}

// TestQueryMeetingFlights: the closest approach of two flights that meet
// is a number, never NaN, so that every comparison of it answers as the
// geometry says.
func TestQueryMeetingFlights(t *testing.T) {
	cat := meetingCatalog(t)
	for _, q := range meetingQueries {
		res, err := Query(cat, q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		rows := res.Scan()
		if len(rows) != 1 || rows[0][0] != "a" || rows[0][1] != "b" {
			t.Errorf("%s: rows %v, want the one pair a, b", q, rows)
			continue
		}
		if d := rows[0][2].(float64); !(0 <= d && d < 1) {
			t.Errorf("%s: closest approach %v, want a number in [0, 1)", q, d)
		}
	}
}

// TestQueryNaNComparisons: a NaN is unequal to everything, so every
// comparison with it is false but <>, and it sorts after every other
// real (and before ⊥).
func TestQueryNaNComparisons(t *testing.T) {
	r := NewRelation("r", Schema{{Name: "x", Type: TReal}})
	for _, x := range []float64{math.NaN(), 1, 2} {
		r.MustInsert(Tuple{x})
	}
	cat := Catalog{"r": r}
	for _, c := range []struct {
		q    string
		want string
	}{
		{"SELECT x FROM r WHERE x < 2.0", "[1]"},
		{"SELECT x FROM r WHERE x <= 1.0", "[1]"},
		{"SELECT x FROM r WHERE x = 1.0", "[1]"},
		{"SELECT x FROM r WHERE x >= 2.0", "[2]"},
		{"SELECT x FROM r WHERE x > 1.0", "[2]"},
		{"SELECT x FROM r WHERE 1.0 >= x", "[1]"},
		{"SELECT x FROM r WHERE x <> 1.0", "[NaN 2]"},
		{"SELECT x FROM r WHERE NOT (x < 2.0)", "[NaN 2]"},
		{"SELECT x FROM r ORDER BY x", "[1 2 NaN]"},
		{"SELECT x FROM r ORDER BY x DESC", "[NaN 2 1]"},
		{"SELECT min(x) FROM r", "[1]"},
	} {
		res, err := Query(cat, c.q)
		if err != nil {
			t.Errorf("%s: %v", c.q, err)
			continue
		}
		var got []any
		for _, tu := range res.Scan() {
			got = append(got, tu[0])
		}
		if s := fmt.Sprint(got); s != c.want {
			t.Errorf("%s = %s, want %s", c.q, s, c.want)
		}
	}
}

func TestQueryWhenRestriction(t *testing.T) {
	// when(flight, inside(...)) returns a restricted mpoint usable in
	// further operations within the query.
	cat := testCatalog(t)
	res, err := Query(cat, `
		SELECT p.id, length(trajectory(when(p.flight, inside(p.flight, s.extent)))) AS inlen
		FROM planes p, storms s
		WHERE sometimes(inside(p.flight, s.extent))`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range res.Scan() {
		if v := tu[1].(float64); v < 0 || math.IsNaN(v) {
			t.Errorf("bad restricted length %v", v)
		}
	}
}

func TestQueryAgainstHandBuilt(t *testing.T) {
	// A fully deterministic micro-catalog where results are computable
	// by hand.
	trips := NewRelation("trips", Schema{
		{Name: "name", Type: TString},
		{Name: "path", Type: TMPoint},
	})
	mk := func(coords ...float64) moving.MPoint {
		var ss []moving.Sample
		for i := 0; i+2 < len(coords); i += 3 {
			ss = append(ss, moving.Sample{T: temporal.Instant(coords[i]), P: geom.Pt(coords[i+1], coords[i+2])})
		}
		p, err := moving.MPointFromSamples(ss)
		if err != nil {
			panic(err)
		}
		return p
	}
	trips.MustInsert(Tuple{"straight", mk(0, 0, 0, 10, 10, 0)})
	trips.MustInsert(Tuple{"bent", mk(0, 0, 0, 10, 10, 0, 20, 10, 10)})
	cat := Catalog{"trips": trips}

	res, err := Query(cat, `SELECT name FROM trips WHERE length(trajectory(path)) > 15`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Scan()[0][0].(string) != "bent" {
		t.Errorf("result = %v", res.Scan())
	}

	res, err = Query(cat, `SELECT name, duration(deftime(path)) AS dur FROM trips`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scan()[0][1].(float64) != 10 || res.Scan()[1][1].(float64) != 20 {
		t.Errorf("durations = %v", res.Scan())
	}

	// Self-join: closest approach of the two trips is 0 (equal prefix).
	res, err = Query(cat, `
		SELECT a.name, b.name
		FROM trips a, trips b
		WHERE a.name < b.name AND val(initial(atmin(distance(a.path, b.path)))) < 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("join rows = %d", res.Len())
	}
}

func TestQueryKeywordCase(t *testing.T) {
	cat := testCatalog(t)
	if _, err := Query(cat, "select id from planes where airline = 'ANA'"); err != nil {
		t.Errorf("lowercase keywords rejected: %v", err)
	}
}

func TestExprString(t *testing.T) {
	stmt, err := parseQuery("SELECT val(initial(atmin(distance(p.flight, q.flight)))) FROM planes p, planes q")
	if err != nil {
		t.Fatal(err)
	}
	got := stmt.items[0].e.String()
	if !strings.Contains(got, "atmin(distance(p.flight, q.flight))") {
		t.Errorf("String = %q", got)
	}
}

func TestQueryRegionSetOps(t *testing.T) {
	zones := NewRelation("zones", Schema{
		{Name: "name", Type: TString},
		{Name: "shape", Type: TRegion},
	})
	mkSq := func(x, y, w float64) spatial.Region {
		return spatial.MustPolygonRegion(spatial.Ring(x, y, x+w, y, x+w, y+w, x, y+w))
	}
	zones.MustInsert(Tuple{"a", mkSq(0, 0, 4)})
	zones.MustInsert(Tuple{"b", mkSq(2, 0, 4)})
	cat := Catalog{"zones": zones}
	res, err := Query(cat, `
		SELECT x.name, y.name, area(intersection(x.shape, y.shape)) AS shared
		FROM zones x, zones y
		WHERE x.name < y.name AND intersects(x.shape, y.shape)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if got := res.Scan()[0][2].(float64); got != 8 {
		t.Errorf("shared area = %v", got)
	}
	res, err = Query(cat, `
		SELECT area(union(x.shape, y.shape)) AS total
		FROM zones x, zones y
		WHERE x.name = 'a' AND y.name = 'b'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Scan()[0][0].(float64); got != 24 {
		t.Errorf("union area = %v", got)
	}
}

func TestQueryUndefSemantics(t *testing.T) {
	// Flights with disjoint definition times: distance is nowhere
	// defined, initial/atmin yield ⊥, the comparison is false and the
	// row is filtered — never an error (SQL NULL discipline).
	trips := NewRelation("trips", Schema{
		{Name: "name", Type: TString},
		{Name: "path", Type: TMPoint},
	})
	mk := func(t0, t1 float64) moving.MPoint {
		p, err := moving.MPointFromSamples([]moving.Sample{
			{T: temporal.Instant(t0), P: geom.Pt(0, 0)},
			{T: temporal.Instant(t1), P: geom.Pt(10, 0)},
		})
		if err != nil {
			panic(err)
		}
		return p
	}
	trips.MustInsert(Tuple{"early", mk(0, 10)})
	trips.MustInsert(Tuple{"late", mk(100, 110)})
	cat := Catalog{"trips": trips}
	res, err := Query(cat, `
		SELECT a.name, b.name
		FROM trips a, trips b
		WHERE a.name < b.name
		  AND val(initial(atmin(distance(a.path, b.path)))) < 1000`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("disjoint-deftime pair passed the filter: %v", res.Scan())
	}
	// ⊥ in a SELECT item surfaces as a schema violation at insert.
	if _, err := Query(cat, `
		SELECT val(initial(atmin(distance(a.path, b.path)))) AS d
		FROM trips a, trips b
		WHERE a.name < b.name`); err == nil {
		t.Error("⊥ in SELECT accepted")
	}
}

func TestQueryOrderByLimit(t *testing.T) {
	cat := testCatalog(t)
	res, err := Query(cat, `
		SELECT id, length(trajectory(flight)) AS len
		FROM planes
		ORDER BY length(trajectory(flight)) DESC, id
		LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("rows = %d", res.Len())
	}
	prev := math.Inf(1)
	for _, tu := range res.Scan() {
		l := tu[1].(float64)
		if l > prev {
			t.Fatalf("not descending: %v after %v", l, prev)
		}
		prev = l
	}
	// Ascending by string with limit beyond size.
	res, err = Query(cat, `SELECT id FROM planes ORDER BY id LIMIT 1000`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != cat["planes"].Len() {
		t.Fatalf("limit clipped: %d", res.Len())
	}
	for i := 1; i < res.Len(); i++ {
		if res.Scan()[i][0].(string) < res.Scan()[i-1][0].(string) {
			t.Fatal("not ascending")
		}
	}
	// ORDER BY on a non-orderable type is a type error.
	if _, err := Query(cat, `SELECT id FROM planes ORDER BY flight`); !errors.Is(err, ErrType) {
		t.Errorf("order by mpoint accepted: %v", err)
	}
	// Bad LIMIT.
	if _, err := Query(cat, `SELECT id FROM planes LIMIT 2.5`); !errors.Is(err, ErrSyntax) {
		t.Errorf("fractional limit accepted: %v", err)
	}
}

func TestQueryOrderByAlias(t *testing.T) {
	cat := testCatalog(t)
	res, err := Query(cat, `
		SELECT id, length(trajectory(flight)) AS len
		FROM planes ORDER BY len LIMIT 4`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < res.Len(); i++ {
		if res.Scan()[i][1].(float64) < res.Scan()[i-1][1].(float64) {
			t.Fatal("alias ordering not ascending")
		}
	}
}

// TestOrderByAliasOneRule: a plain and a grouped query resolve an ORDER
// BY name by one rule. An alias wins over a column or a derived name,
// and of two items with the alias the later one is the key.
func TestOrderByAliasOneRule(t *testing.T) {
	r := NewRelation("r", Schema{{Name: "a", Type: TString}, {Name: "b", Type: TReal}})
	for _, row := range []Tuple{{"x", 3.0}, {"x", 4.0}, {"x", 5.0}, {"y", 2.0}, {"y", 6.0}, {"z", 1.0}} {
		r.MustInsert(row)
	}
	cat := Catalog{"r": r}
	for _, c := range []struct {
		sql  string
		want []string // the first column, in result order
	}{
		{"SELECT a AS k, b AS k FROM r ORDER BY k", []string{"z", "y", "x", "x", "x", "y"}},
		{"SELECT a, b AS a FROM r ORDER BY a", []string{"z", "y", "x", "x", "x", "y"}},
		{"SELECT a AS k, count(*) AS k FROM r GROUP BY a ORDER BY k", []string{"z", "y", "x"}},
		{"SELECT a, count(*) AS a FROM r GROUP BY a ORDER BY a", []string{"z", "y", "x"}},
		{"SELECT a AS k, count(*) AS n FROM r GROUP BY a ORDER BY n DESC, k", []string{"x", "y", "z"}},
	} {
		res, err := Query(cat, c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		var got []string
		for _, tu := range res.Scan() {
			got = append(got, tu[0].(string))
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: rows in order %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestQueryAggregates(t *testing.T) {
	cat := testCatalog(t)
	// Global aggregates.
	res, err := Query(cat, `SELECT count(*) AS n, avg(length(trajectory(flight))) AS meanlen FROM planes`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if res.Scan()[0][0].(int64) != int64(cat["planes"].Len()) {
		t.Errorf("count = %v", res.Scan()[0][0])
	}
	var sum float64
	planes := cat["planes"]
	for _, tu := range planes.Scan() {
		sum += Get[moving.MPoint](planes, tu, "flight").Length()
	}
	wantMean := sum / float64(planes.Len())
	if got := res.Scan()[0][1].(float64); math.Abs(got-wantMean) > 1e-9 {
		t.Errorf("avg = %v, want %v", got, wantMean)
	}

	// GROUP BY with count, min, max, sum; ordered by count.
	res, err = Query(cat, `
		SELECT airline, count(*) AS n,
		       max(length(trajectory(flight))) AS longest,
		       min(id) AS firstid
		FROM planes
		GROUP BY airline
		ORDER BY n DESC, airline`)
	if err != nil {
		t.Fatal(err)
	}
	// Verify group counts against a manual tally.
	tally := map[string]int64{}
	for _, tu := range planes.Scan() {
		tally[Get[string](planes, tu, "airline")]++
	}
	if res.Len() != len(tally) {
		t.Fatalf("groups = %d, want %d", res.Len(), len(tally))
	}
	prev := int64(1 << 62)
	for _, tu := range res.Scan() {
		airline := tu[0].(string)
		n := tu[1].(int64)
		if n != tally[airline] {
			t.Errorf("%s count = %d, want %d", airline, n, tally[airline])
		}
		if n > prev {
			t.Error("not ordered by count desc")
		}
		prev = n
		if tu[3].(string) == "" {
			t.Error("min(id) empty")
		}
	}

	// WHERE filters before grouping.
	res, err = Query(cat, `SELECT count(*) AS n FROM planes WHERE airline = 'Lufthansa'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scan()[0][0].(int64) != tally["Lufthansa"] {
		t.Errorf("filtered count = %v", res.Scan()[0][0])
	}

	// Aggregate over an empty set: count is 0; avg errors.
	res, err = Query(cat, `SELECT count(*) AS n FROM planes WHERE airline = 'NoSuch'`)
	if err != nil || res.Scan()[0][0].(int64) != 0 {
		t.Errorf("empty count = %v, %v", res.Scan(), err)
	}
	if _, err := Query(cat, `SELECT avg(length(trajectory(flight))) AS m FROM planes WHERE airline = 'NoSuch'`); err == nil {
		t.Error("avg over empty set accepted")
	}

	// Type errors.
	if _, err := Query(cat, `SELECT id, count(*) AS n FROM planes GROUP BY airline`); !errors.Is(err, ErrType) {
		t.Error("non-grouped column accepted")
	}
	if _, err := Query(cat, `SELECT count(*) AS n FROM planes GROUP BY flight`); !errors.Is(err, ErrType) {
		t.Error("grouping by mpoint accepted")
	}
	if _, err := Query(cat, `SELECT length(*) FROM planes`); !errors.Is(err, ErrType) {
		t.Error("stray * accepted")
	}
	if _, err := Query(cat, `SELECT airline, count(*) AS n FROM planes GROUP BY airline ORDER BY id`); !errors.Is(err, ErrType) {
		t.Errorf("ORDER BY an ungrouped column: err = %v, want ErrType", err)
	}
	if _, err := Query(cat, `SELECT count(count(*)) FROM planes`); !errors.Is(err, ErrType) {
		t.Errorf("aggregate of an aggregate: err = %v, want ErrType", err)
	}
	if _, err := Query(cat, `SELECT id FROM planes WHERE count(*) > 0`); !errors.Is(err, ErrType) {
		t.Errorf("aggregate in WHERE: err = %v, want ErrType", err)
	}

	// An aggregate is an expression: it may stand in arithmetic and in
	// ORDER BY, and a group column may be a key under any spelling.
	byCount, err := Query(cat, `SELECT airline, count(*) FROM planes GROUP BY airline ORDER BY count(*) DESC, airline`)
	if err != nil {
		t.Fatal(err)
	}
	byAlias, err := Query(cat, `SELECT airline, count(*) AS n FROM planes GROUP BY airline ORDER BY n DESC, airline`)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(byCount.Scan(), byAlias.Scan(), slices.Equal) {
		t.Errorf("ORDER BY count(*) = %v, ORDER BY its alias = %v", byCount.Scan(), byAlias.Scan())
	}
	for _, sql := range []string{
		`SELECT airline, count(*) AS n FROM planes GROUP BY airline ORDER BY planes.airline DESC`,
		`SELECT airline AS a, count(*) AS n FROM planes GROUP BY airline ORDER BY airline DESC`,
		`SELECT planes.airline, count(*) AS n FROM planes GROUP BY airline ORDER BY airline DESC`,
	} {
		res, err := Query(cat, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.Len() != len(tally) {
			t.Fatalf("%s: %d groups, want %d", sql, res.Len(), len(tally))
		}
		for i := 1; i < res.Len(); i++ {
			if res.Scan()[i][0].(string) >= res.Scan()[i-1][0].(string) {
				t.Errorf("%s: not descending by airline: %v", sql, res.Scan())
			}
		}
	}
	res, err = Query(cat, `SELECT sum(length(trajectory(flight))) + 1 AS s FROM planes`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Scan()[0][0].(float64); math.Abs(got-(sum+1)) > 1e-9 {
		t.Errorf("sum(...) + 1 = %v, want %v", got, sum+1)
	}

	// min on mreal in scalar mode still works (not hijacked by aggregates).
	res, err = Query(cat, `SELECT id, min(speed(flight)) AS slowest FROM planes LIMIT 2`)
	if err != nil {
		t.Fatalf("scalar min broken: %v", err)
	}
	if res.Len() != 2 {
		t.Errorf("scalar-mode rows = %d", res.Len())
	}
}

// Two rows share a group exactly when their grouping values are equal:
// not when their printed forms happen to concatenate alike
// (TestGroupByStringKeys), and not apart when the values differ only in
// the sign of zero (TestGroupByZeroKeys).

func groupKeyCatalog() Catalog {
	r := NewRelation("r", Schema{{Name: "a", Type: TString}, {Name: "b", Type: TString}, {Name: "x", Type: TReal}})
	r.MustInsert(Tuple{"a\x00", "b", 0.0})
	r.MustInsert(Tuple{"a", "\x00b", math.Copysign(0, -1)})
	r.MustInsert(Tuple{"a", "\x00b", 1.0})
	return Catalog{"r": r}
}

func TestGroupByStringKeys(t *testing.T) {
	res, err := Query(groupKeyCatalog(), "SELECT a, b, count(*) AS n FROM r GROUP BY a, b")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Scan()[0][2].(int64) != 1 || res.Scan()[1][2].(int64) != 2 {
		t.Errorf(`("a\x00", "b") and ("a", "\x00b") must be two groups of 1 and 2 rows, got %q`, res.Scan())
	}
}

func TestGroupByZeroKeys(t *testing.T) {
	res, err := Query(groupKeyCatalog(), "SELECT x, count(*) AS n FROM r GROUP BY x")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Scan()[0][1].(int64) != 2 || res.Scan()[1][1].(int64) != 1 {
		t.Errorf("0 and -0 must be one group of 2 rows beside the group of 1, got %v", res.Scan())
	}
}

// TestOutputNamesDeduplicate: both modes name a repeated output column
// by one rule, "#<position>" after the first.
func TestOutputNamesDeduplicate(t *testing.T) {
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{"SELECT a, a FROM r", []string{"a", "a#1"}},
		{"SELECT count(*), count(*) FROM r", []string{"count(*)", "count(*)#1"}},
		{"SELECT a, count(*) AS a FROM r GROUP BY a", []string{"a", "a#1"}},
		{"SELECT a, count(*) AS n, count(*) AS n, a FROM r GROUP BY a", []string{"a", "n", "n#2", "a#3"}},
	} {
		res, err := Query(groupKeyCatalog(), c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		var got []string
		for _, col := range res.Schema {
			got = append(got, col.Name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: columns %q, want %q", c.sql, got, c.want)
		}
	}
}

// TestFusedAreaExtremum: max(area(e)) and min(area(e)) of a moving
// region are one fused call that answers what the built moving real's
// Max and Min answer, bit for bit, ⊥ for the empty region, and records
// area once per evaluation and no max or min. The aggregate max over a
// real argument stays an aggregate.
func TestFusedAreaExtremum(t *testing.T) {
	cat := analyticsCatalog()
	storms := cat["storms"]
	storms.MustInsert(Tuple{"empty", moving.MRegion{}})
	m := obs.New(0)
	ctx := obs.NewContext(context.Background(), m)
	res, err := QueryContext(ctx, cat, "SELECT name, max(area(extent)) AS hi, MIN(area(extent)) AS lo FROM storms WHERE name <> 'empty'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != storms.Len()-1 {
		t.Fatalf("%d rows, want %d", res.Len(), storms.Len()-1)
	}
	if got := res.Schema[2].Name; got != "lo" {
		t.Errorf("column name = %q", got)
	}
	for k, row := range res.Scan() {
		area := storms.Scan()[k][1].(moving.MRegion).Area()
		hi, _, _ := area.Max()
		lo, _, _ := area.Min()
		if math.Float64bits(row[1].(float64)) != math.Float64bits(hi) || math.Float64bits(row[2].(float64)) != math.Float64bits(lo) {
			t.Errorf("%s: fused extrema %v, %v; the moving real's %v, %v", row[0], row[1], row[2], hi, lo)
		}
	}
	ops := m.Snapshot().Operators
	if ops["area"].Count != int64(2*res.Len()) || ops["max"].Count != 0 || ops["min"].Count != 0 {
		t.Errorf("operators after %d rows: %v", res.Len(), ops)
	}
	if _, err := Query(cat, "SELECT max(area(extent)) FROM storms WHERE name = 'empty'"); !errors.Is(err, ErrSchema) {
		t.Errorf("max(area) of the empty region: err = %v, want ErrSchema for a selected ⊥", err)
	}
	res, err = Query(cat, "SELECT max(length(trajectory(flight))) AS longest FROM planes")
	if err != nil || res.Len() != 1 {
		t.Fatalf("aggregate max: %v, %v", res, err)
	}
}
