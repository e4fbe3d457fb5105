package db

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

// FuzzQueryMatchesNaive holds the executor's scalar expressions to a
// naive evaluator. Each input seeds two relations r and t of schema
// (s string, x real, i int, b bool, m mpoint) — with "", strings that
// contain NUL, both zeros, NaN, 1e308, the int64 extremes and empty
// moving points among the values — and a run of random well-typed
// statements over their cross product: a SELECT list and a WHERE clause
// built from the six comparisons over columns of both relations and
// literals of each type, nested AND / OR / NOT, negation and arithmetic
// (division by zero and overflow included), with min(speed(m)) and
// present(m, …) as the sources of ⊥. A share of the WHERE clauses are
// chains of AND conjuncts that put comparisons reading one relation,
// and comparisons of a column of r with one of t, on both sides of
// arithmetic that can fail, which holds the executor's push-down to its
// rule: the first kind filters a relation before the cross product, the
// second is the row test of t's rows. A few statements compare or add
// values of mixed types, which bind refuses. The naive side walks the
// nested loop itself and evaluates each generated node with its own
// closure; it shares no code with the executor's evaluation or its
// comparisons, and it calls the moving package directly for the two
// operations. The expected answer is the rows, or ErrType for a type
// error or a failed row, or ErrSchema when a selected value is ⊥.
func FuzzQueryMatchesNaive(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 13, 37, 42, 1000} {
		f.Add(seed, uint8(seed*5), uint8(seed*3))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, m uint8) {
		rng := rand.New(rand.NewSource(seed))
		r, tt := oracleRelation(rng, "r", int(n%7)), oracleRelation(rng, "t", int(m%7))
		cat := Catalog{"r": r, "t": tt}
		for k := 0; k < 24; k++ {
			q := genOracleQuery(rng)
			sql := q.sql()
			want, wantErr := q.naive(r.Scan(), tt.Scan())
			got, err := Query(cat, sql)
			if wantErr != nil {
				if !errors.Is(err, wantErr) {
					t.Fatalf("%s: err = %v, want %v\nover r %v\nand t %v", sql, err, wantErr, r.Scan(), tt.Scan())
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v\nover r %v\nand t %v", sql, err, r.Scan(), tt.Scan())
			}
			if !sameRows(got.Scan(), want) {
				t.Fatalf("%s:\n got %v\nwant %v\nover r %v\nand t %v", sql, got.Scan(), want, r.Scan(), tt.Scan())
			}
		}
	})
}

// TestPushDownKeepsFailures: a conjunct that reads one relation moves
// ahead of the cross product only when no conjunct to its left can
// fail. Right of a division by zero it stays, and the division fails
// the statement on its first row; left of it, it filters every row away
// first, as it did row by row, so the division never runs.
func TestPushDownKeepsFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cat := Catalog{"r": oracleRelation(rng, "r", 3), "t": oracleRelation(rng, "t", 3)}
	if _, err := Query(cat, "SELECT p.s FROM r p, t q WHERE p.x / 0 > 1 AND q.s = 'absent'"); !errors.Is(err, ErrType) {
		t.Errorf("division by zero left of a one-relation conjunct: err = %v, want ErrType", err)
	}
	res, err := Query(cat, "SELECT p.s FROM r p, t q WHERE q.s = 'absent' AND p.x / 0 > 1")
	if err != nil || res.Len() != 0 {
		t.Errorf("division by zero right of a one-relation conjunct that holds nowhere: %v rows, err = %v; want none", res, err)
	}
}

// TestPushDownKeepsFailuresTwoItems: a conjunct that reads both FROM
// items moves into the row loop, as the row test of the later one, only
// when no conjunct to its left can fail. Right of a division by zero it
// stays, and the division fails the statement on its first row; left of
// it, it refuses every row first, as it did in the WHERE clause, so the
// division never runs.
func TestPushDownKeepsFailuresTwoItems(t *testing.T) {
	r := NewRelation("r", Schema{{Name: "s", Type: TString}, {Name: "x", Type: TReal}})
	r.MustInsert(Tuple{"b", 1.0})
	r.MustInsert(Tuple{"c", 2.0})
	tt := NewRelation("t", Schema{{Name: "s", Type: TString}})
	tt.MustInsert(Tuple{"a"})
	tt.MustInsert(Tuple{"b"})
	cat := Catalog{"r": r, "t": tt}
	if _, err := Query(cat, "SELECT p.s FROM r p, t q WHERE p.x / 0 > 1 AND p.s < q.s"); !errors.Is(err, ErrType) {
		t.Errorf("division by zero left of a two-relation conjunct: err = %v, want ErrType", err)
	}
	res, err := Query(cat, "SELECT p.s FROM r p, t q WHERE p.s < q.s AND p.x / 0 > 1")
	if err != nil || res.Len() != 0 {
		t.Errorf("division by zero right of a two-relation conjunct that holds nowhere: %v rows, err = %v; want none", res, err)
	}
}

// The oracle's relations: column positions and the values they draw.
const (
	oS = iota
	oX
	oI
	oB
	oM
)

var (
	oracleStrings = []string{"", "a", "a\x00", "\x00a", "b", "a\x00b", "zzz"}
	oracleReals   = []float64{0, math.Copysign(0, -1), 1.5, -2, 3, 0.1, 0.2, math.NaN(), 1e308}
	oracleInts    = []int64{-2, -1, 0, 1, 2, math.MinInt64, math.MaxInt64}
	// oracleNums are the number literals; the lexer reads no sign, so a
	// negative one is spelled as a negation.
	oracleNums = []float64{0, 0.5, 1.5, 2, 3, 0.1, 1e308}
)

func oracleRelation(rng *rand.Rand, name string, n int) *Relation {
	rel := NewRelation(name, Schema{
		{Name: "s", Type: TString}, {Name: "x", Type: TReal}, {Name: "i", Type: TInt},
		{Name: "b", Type: TBool}, {Name: "m", Type: TMPoint},
	})
	for k := 0; k < n; k++ {
		x := oracleReals[rng.Intn(len(oracleReals))]
		if rng.Intn(4) == 0 {
			x = float64(rng.Intn(41)-20) / 4
		}
		var mp moving.MPoint // empty: min(speed(m)) is ⊥
		if rng.Intn(3) > 0 {
			t0 := float64(rng.Intn(4))
			var err error
			mp, err = moving.MPointFromSamples([]moving.Sample{
				{T: temporal.Instant(t0), P: geom.Pt(0, 0)},
				{T: temporal.Instant(t0 + 1 + float64(rng.Intn(3))), P: geom.Pt(float64(rng.Intn(5)), float64(rng.Intn(5)))},
			})
			if err != nil {
				panic(err)
			}
		}
		rel.MustInsert(Tuple{
			oracleStrings[rng.Intn(len(oracleStrings))], x,
			oracleInts[rng.Intn(len(oracleInts))], rng.Intn(2) == 0, mp,
		})
	}
	return rel
}

// oracleUndef is the naive evaluator's ⊥.
type oracleUndef struct{}

// errOracle is a failed row on the naive side (division by zero, a
// result outside the finite reals); the executor must answer ErrType.
var errOracle = errors.New("oracle: failed row")

// oExpr is one generated expression: its SQL text, its static type, its
// naive value on a row of the cross product and whether bind must refuse
// it.
type oExpr struct {
	sql  string
	typ  AttrType
	eval func(p, q Tuple) (any, error)
	bad  bool
}

// oracleGen generates expressions; depth bounds the nesting.
type oracleGen struct{ rng *rand.Rand }

// scalar draws a random expression of type t.
func (g oracleGen) scalar(t AttrType, depth int) oExpr {
	switch t {
	case TReal:
		return g.real(depth)
	case TInt:
		return g.int(depth)
	case TString:
		return g.str()
	}
	return g.pred(depth)
}

// column reads column c of the relation aliased p or q.
func (g oracleGen) column(c int, t AttrType) oExpr { return sideColumn(g.rng.Intn(2), c, t) }

// sideColumn reads column c of the relation aliased p (side 0) or q.
func sideColumn(side, c int, t AttrType) oExpr {
	name := []string{"s", "x", "i", "b", "m"}[c]
	return oExpr{
		sql: []string{"p.", "q."}[side] + name, typ: t,
		eval: func(p, q Tuple) (any, error) {
			if side == 0 {
				return p[c], nil
			}
			return q[c], nil
		},
	}
}

func oracleConst(sql string, t AttrType, v any) oExpr {
	return oExpr{sql: sql, typ: t, eval: func(_, _ Tuple) (any, error) { return v, nil }}
}

func (g oracleGen) str() oExpr {
	if g.rng.Intn(2) == 0 {
		return g.column(oS, TString)
	}
	s := oracleStrings[g.rng.Intn(len(oracleStrings))]
	return oracleConst("'"+s+"'", TString, s)
}

func (g oracleGen) int(depth int) oExpr {
	if depth > 0 && g.rng.Intn(3) == 0 {
		e := g.int(depth - 1)
		return oExpr{sql: "(-" + e.sql + ")", typ: TInt, bad: e.bad, eval: func(p, q Tuple) (any, error) {
			v, err := e.eval(p, q)
			if err != nil {
				return nil, err
			}
			x := v.(int64)
			if x == math.MinInt64 {
				return nil, errOracle // its negation is no int64
			}
			return -x, nil
		}}
	}
	return g.column(oI, TInt)
}

func (g oracleGen) real(depth int) oExpr {
	switch k := g.rng.Intn(8); {
	case depth > 0 && k < 3:
		l, r := g.real(depth-1), g.real(depth-1)
		if g.rng.Intn(30) == 0 {
			r = g.int(depth - 1) // arithmetic needs reals
			r.bad = true
		}
		return oracleArith(l, "+-*/"[g.rng.Intn(4)], r)
	case depth > 0 && k == 3:
		e := g.real(depth - 1)
		return oExpr{sql: "(-" + e.sql + ")", typ: TReal, bad: e.bad, eval: func(p, q Tuple) (any, error) {
			v, err := e.eval(p, q)
			if err != nil {
				return nil, err
			}
			if x, ok := v.(float64); ok {
				return -x, nil
			}
			return v, nil
		}}
	case k == 4:
		side := g.rng.Intn(2)
		return oExpr{sql: "min(speed(" + []string{"p", "q"}[side] + ".m))", typ: TReal, eval: func(p, q Tuple) (any, error) {
			row := p
			if side == 1 {
				row = q
			}
			v, _, ok := row[oM].(moving.MPoint).Speed().Min()
			if !ok {
				return oracleUndef{}, nil
			}
			return v, nil
		}}
	case k < 7:
		return g.column(oX, TReal)
	}
	return oracleNum(oracleNums[g.rng.Intn(len(oracleNums))])
}

func oracleNum(v float64) oExpr {
	return oracleConst(strconv.FormatFloat(v, 'g', -1, 64), TReal, v)
}

// oracleArith evaluates both operands, the left first; ⊥ in either is ⊥,
// and a zero divisor or a result that is not a finite real fails.
func oracleArith(l oExpr, op byte, r oExpr) oExpr {
	return oExpr{
		sql: "(" + l.sql + " " + string(op) + " " + r.sql + ")", typ: TReal, bad: l.bad || r.bad,
		eval: func(p, q Tuple) (any, error) {
			lv, err := l.eval(p, q)
			if err != nil {
				return nil, err
			}
			rv, err := r.eval(p, q)
			if err != nil {
				return nil, err
			}
			x, okX := lv.(float64)
			y, okY := rv.(float64)
			if !okX || !okY {
				return oracleUndef{}, nil
			}
			var v float64
			switch op {
			case '+':
				v = x + y
			case '-':
				v = x - y
			case '*':
				v = x * y
			default:
				if y == 0 {
					return nil, errOracle
				}
				v = x / y
			}
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, errOracle
			}
			return v, nil
		},
	}
}

var oracleOps = []string{"<", "<=", ">", ">=", "=", "<>"}

// pred draws a random bool expression.
func (g oracleGen) pred(depth int) oExpr {
	k := g.rng.Intn(10)
	if depth == 0 {
		k = 7 + k%3
	}
	switch {
	case k < 3:
		t := []AttrType{TReal, TInt, TString, TBool}[g.rng.Intn(4)]
		l, r := g.scalar(t, depth-1), g.scalar(t, depth-1)
		if g.rng.Intn(30) == 0 {
			r = g.scalar([]AttrType{TReal, TInt, TString, TBool}[g.rng.Intn(4)], depth-1)
			r.bad = r.bad || r.typ != t
		}
		return oracleCompare(l, oracleOps[g.rng.Intn(len(oracleOps))], r)
	case k < 5:
		return oracleConnective(g.pred(depth-1), []string{"AND", "OR"}[g.rng.Intn(2)], g.pred(depth-1))
	case k == 5:
		return oracleNot(g.pred(depth - 1))
	case k == 6:
		side := g.rng.Intn(2)
		at := g.real(depth - 1)
		return oExpr{sql: "present(" + []string{"p", "q"}[side] + ".m, " + at.sql + ")", typ: TBool, bad: at.bad, eval: func(p, q Tuple) (any, error) {
			v, err := at.eval(p, q)
			if err != nil {
				return nil, err
			}
			x, ok := v.(float64)
			if !ok {
				return oracleUndef{}, nil
			}
			row := p
			if side == 1 {
				row = q
			}
			return row[oM].(moving.MPoint).Present(temporal.Instant(x)), nil
		}}
	case k < 9:
		return g.column(oB, TBool)
	}
	if g.rng.Intn(2) == 0 {
		return oracleConst("TRUE", TBool, true)
	}
	return oracleConst("FALSE", TBool, false)
}

// oracleCompare evaluates both operands, the left first. ⊥ on either side
// makes it false; a NaN is unequal to everything; false sorts before
// true.
func oracleCompare(l oExpr, op string, r oExpr) oExpr {
	return oExpr{
		sql: "(" + l.sql + " " + op + " " + r.sql + ")", typ: TBool, bad: l.bad || r.bad,
		eval: func(p, q Tuple) (any, error) {
			lv, err := l.eval(p, q)
			if err != nil {
				return nil, err
			}
			rv, err := r.eval(p, q)
			if err != nil {
				return nil, err
			}
			var less, equal bool
			switch x := lv.(type) {
			case oracleUndef:
				return false, nil
			case float64:
				y, ok := rv.(float64)
				if !ok {
					return false, nil
				}
				if math.IsNaN(x) || math.IsNaN(y) {
					return op == "<>", nil
				}
				less, equal = x < y, x == y
			case int64:
				y := rv.(int64)
				less, equal = x < y, x == y
			case string:
				y := rv.(string)
				less, equal = x < y, x == y
			case bool:
				y, ok := rv.(bool)
				if !ok {
					return false, nil
				}
				less, equal = !x && y, x == y
			}
			switch op {
			case "<":
				return less, nil
			case "<=":
				return less || equal, nil
			case ">":
				return !less && !equal, nil
			case ">=":
				return !less, nil
			case "=":
				return equal, nil
			}
			return !equal, nil
		},
	}
}

// oracleNot negates a bool; ⊥ stays ⊥.
func oracleNot(e oExpr) oExpr {
	return oExpr{sql: "(NOT " + e.sql + ")", typ: TBool, bad: e.bad, eval: func(p, q Tuple) (any, error) {
		v, err := e.eval(p, q)
		if err != nil {
			return nil, err
		}
		if b, ok := v.(bool); ok {
			return !b, nil
		}
		return v, nil
	}}
}

// oracleConnective short-circuits: a false left side of AND and a true left
// side of OR decide without the right one. Otherwise ⊥ on either side
// is ⊥.
func oracleConnective(l oExpr, op string, r oExpr) oExpr {
	and := op == "AND"
	return oExpr{
		sql: "(" + l.sql + " " + op + " " + r.sql + ")", typ: TBool, bad: l.bad || r.bad,
		eval: func(p, q Tuple) (any, error) {
			lv, err := l.eval(p, q)
			if err != nil {
				return nil, err
			}
			if b, ok := lv.(bool); ok && b != and {
				return b, nil
			}
			rv, err := r.eval(p, q)
			if err != nil {
				return nil, err
			}
			lb, okL := lv.(bool)
			rb, okR := rv.(bool)
			if !okL || !okR {
				return oracleUndef{}, nil
			}
			if and {
				return lb && rb, nil
			}
			return lb || rb, nil
		},
	}
}

// chain draws n conjuncts joined by AND in a random shape: comparisons
// that read one relation, comparisons that read both, conjuncts that
// can fail on some rows (a zero divisor, an overflow) and random
// predicates. So the executor's push-down meets one- and two-relation
// conjuncts both left and right of one that can fail, and may move only
// the former.
func (g oracleGen) chain(n int) oExpr {
	cs := make([]oExpr, n)
	for k := range cs {
		switch g.rng.Intn(4) {
		case 0:
			cs[k] = g.oneSide()
		case 1:
			cs[k] = g.twoSide()
		case 2:
			cs[k] = g.failing()
		default:
			cs[k] = g.pred(1)
		}
	}
	for len(cs) > 1 {
		k := g.rng.Intn(len(cs) - 1)
		cs[k] = oracleConnective(cs[k], "AND", cs[k+1])
		cs = append(cs[:k+1], cs[k+2:]...)
	}
	return cs[0]
}

// oneSide draws a comparison, or its negation, that reads one relation:
// a column against a literal or against a column of the same side. An
// int column meets an int column: the lexer reads every number as a
// real.
func (g oracleGen) oneSide() oExpr {
	side, c := g.rng.Intn(2), g.rng.Intn(4) // oS, oX, oI or oB
	t := []AttrType{TString, TReal, TInt, TBool}[c]
	l, r := sideColumn(side, c, t), sideColumn(side, c, t)
	if g.rng.Intn(2) == 0 {
		switch t {
		case TString:
			v := oracleStrings[g.rng.Intn(len(oracleStrings))]
			r = oracleConst("'"+v+"'", TString, v)
		case TReal:
			r = oracleNum(oracleNums[g.rng.Intn(len(oracleNums))])
		case TBool:
			r = oracleConst("TRUE", TBool, true)
		}
	}
	e := oracleCompare(l, oracleOps[g.rng.Intn(len(oracleOps))], r)
	if g.rng.Intn(4) == 0 {
		return oracleNot(e)
	}
	return e
}

// twoSide draws a comparison, or its negation, of a column of r with
// the column of t of the same type, either side first.
func (g oracleGen) twoSide() oExpr {
	c := g.rng.Intn(4) // oS, oX, oI or oB
	t := []AttrType{TString, TReal, TInt, TBool}[c]
	side := g.rng.Intn(2)
	e := oracleCompare(sideColumn(side, c, t), oracleOps[g.rng.Intn(len(oracleOps))], sideColumn(1-side, c, t))
	if g.rng.Intn(4) == 0 {
		return oracleNot(e)
	}
	return e
}

// failing draws a comparison of arithmetic that fails on some rows: a
// division by a column that may hold a zero, or by 0 itself, or a
// product that leaves the finite reals.
func (g oracleGen) failing() oExpr {
	x := sideColumn(g.rng.Intn(2), oX, TReal)
	var a oExpr
	switch g.rng.Intn(3) {
	case 0:
		a = oracleArith(x, '/', sideColumn(g.rng.Intn(2), oX, TReal))
	case 1:
		a = oracleArith(x, '/', oracleNum(0))
	default:
		a = oracleArith(x, '*', oracleNum(1e308))
	}
	return oracleCompare(a, oracleOps[g.rng.Intn(len(oracleOps))], oracleNum(1))
}

// oracleQuery is SELECT items FROM r p, t q [WHERE where].
type oracleQuery struct {
	items []oExpr
	where *oExpr
}

func genOracleQuery(rng *rand.Rand) oracleQuery {
	g := oracleGen{rng}
	var q oracleQuery
	for k := 0; k < 1+rng.Intn(3); k++ {
		q.items = append(q.items, g.scalar([]AttrType{TReal, TInt, TString, TBool}[rng.Intn(4)], rng.Intn(3)))
	}
	switch k := rng.Intn(5); {
	case k == 1:
		w := g.chain(2 + rng.Intn(3))
		q.where = &w
	case k > 1:
		w := g.pred(1 + rng.Intn(3))
		q.where = &w
	}
	return q
}

func (q oracleQuery) sql() string {
	items := make([]string, len(q.items))
	for k, it := range q.items {
		items[k] = it.sql
	}
	s := "SELECT " + strings.Join(items, ", ") + " FROM r p, t q"
	if q.where != nil {
		s += " WHERE " + q.where.sql
	}
	return s
}

// naive answers q over the cross product of rs and ts in nested-loop
// order: per row the WHERE clause, then the items left to right; the
// first failure ends the statement. A selected ⊥ fails the row's insert,
// after all its items were evaluated.
func (q oracleQuery) naive(rs, ts []Tuple) (rows []Tuple, wantErr error) {
	bad := q.where != nil && q.where.bad
	for _, it := range q.items {
		bad = bad || it.bad
	}
	if bad {
		return nil, ErrType
	}
	for _, p := range rs {
		for _, t := range ts {
			if q.where != nil {
				keep, err := q.where.eval(p, t)
				if err != nil {
					return nil, ErrType
				}
				if keep != true {
					continue
				}
			}
			row := make(Tuple, len(q.items))
			for k, it := range q.items {
				v, err := it.eval(p, t)
				if err != nil {
					return nil, ErrType
				}
				row[k] = v
			}
			for _, v := range row {
				if v == (oracleUndef{}) {
					return nil, ErrSchema
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// String renders the oracle's ⊥ in failure messages.
func (oracleUndef) String() string { return "⊥" }

// TestRowTestsAcrossThreeItems: with three FROM items each moved
// conjunct is the row test of the deepest item it reads — p.i < q.i of
// q's rows under each row of p, q.i < r.i and the OR of r's under each
// pair — and the answer is the nested loop's, rows in its order.
func TestRowTestsAcrossThreeItems(t *testing.T) {
	n := NewRelation("n", Schema{{Name: "i", Type: TInt}})
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	for _, v := range vals {
		n.MustInsert(Tuple{v})
	}
	res, err := Query(Catalog{"n": n}, "SELECT p.i, q.i, r.i FROM n p, n q, n r WHERE p.i < q.i AND q.i < r.i AND (p.i = q.i OR NOT r.i = q.i) AND (r.i <> p.i OR p.i > q.i)")
	if err != nil {
		t.Fatal(err)
	}
	var want []Tuple
	for _, p := range vals {
		for _, q := range vals {
			for _, r := range vals {
				if p < q && q < r && (p == q || r != q) && (r != p || p > q) {
					want = append(want, Tuple{p, q, r})
				}
			}
		}
	}
	if len(want) == 0 || !sameRows(res.Scan(), want) {
		t.Fatalf("got %v\nwant %v", res.Scan(), want)
	}
}

// TestTotalComparisonsHaveOneEvaluator: a comparison of two total
// operands binds with only its typed comparator, which its eval runs
// too, and any other comparison with only the boxed one. In template b,
// p.id < q.id is typed and the guarded distance comparison is boxed.
func TestTotalComparisonsHaveOneEvaluator(t *testing.T) {
	_, where := bindForTest(t, Catalog{"planes": benchPlanes(workload.New(2000))}, templateB)
	and := where.(*connective)
	if c := and.l.(*comparison); c.order == nil || c.cmp != nil {
		t.Errorf("%v: order set %v, cmp set %v; want only order", c, c.order != nil, c.cmp != nil)
	}
	if c := and.r.(*guard).inner.(*comparison); c.cmp == nil || c.order != nil {
		t.Errorf("%v: cmp set %v, order set %v; want only cmp", c, c.cmp != nil, c.order != nil)
	}
}

// bindForTest binds sql's FROM items and WHERE clause as QueryContext
// does, for a test that reads or edits the bound clause before the row
// loop.
func bindForTest(t *testing.T, cat Catalog, sql string) (*queryEnv, node) {
	t.Helper()
	stmt, err := parseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	env := &queryEnv{ctx: context.Background()}
	for _, f := range stmt.from {
		env.binds = append(env.binds, binding{alias: f.alias, rel: cat[f.rel]})
	}
	where, err := env.bindWhere(stmt.where)
	if err != nil {
		t.Fatal(err)
	}
	return env, where
}
