package db

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// FuzzAggregateMatchesNaive holds the executor's grouping branch to a
// naive fold. Each input seeds a relation r(s string, x real, i int,
// b bool) whose values collide often, with both zeros of a real and
// strings that contain NUL, and a run of grouped queries over it: GROUP
// BY columns (plain or qualified), count / sum / avg / min / max items,
// some inside arithmetic, a WHERE predicate, ORDER BY keys that name an
// alias, a group column or an aggregate, and LIMIT. The fold reads the
// tuples directly and groups by pairwise naiveOrder equality; it shares
// no code with the executor's key encoders, comparators or sort. Insert admits no ⊥ in a
// scalar column, so every aggregate's input is defined.
func FuzzAggregateMatchesNaive(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1000} {
		f.Add(seed, uint8(seed*7))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		r := naiveRelation(rng, int(n%40))
		cat := Catalog{"r": r}
		for k := 0; k < 16; k++ {
			q := genAggQuery(rng)
			sql := q.sql()
			want, wantErr := q.naive(r)
			got, err := Query(cat, sql)
			if wantErr {
				if !errors.Is(err, ErrType) {
					t.Fatalf("%s: err = %v, want ErrType (an aggregate over no values)", sql, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if len(got.Schema) != len(q.items) {
				t.Fatalf("%s: schema %v", sql, got.Schema)
			}
			if !sameRows(got.Scan(), want) {
				t.Fatalf("%s:\n got %v\nwant %v\nover %v", sql, got.Scan(), want, r.Scan())
			}
		}
	})
}

var naiveCols = [...]string{"s", "x", "i", "b"}

func naiveRelation(rng *rand.Rand, n int) *Relation {
	r := NewRelation("r", Schema{{Name: "s", Type: TString}, {Name: "x", Type: TReal}, {Name: "i", Type: TInt}, {Name: "b", Type: TBool}})
	strs := []string{"", "a", "a\x00", "\x00a", "b", "a\x00b"}
	reals := []float64{0, math.Copysign(0, -1), 1.5, -2, 3, 0.1, 0.2}
	for k := 0; k < n; k++ {
		x := reals[rng.Intn(len(reals))]
		if rng.Intn(4) == 0 {
			x = float64(rng.Intn(2001)-1000) / 8
		}
		r.MustInsert(Tuple{strs[rng.Intn(len(strs))], x, int64(rng.Intn(5) - 2), rng.Intn(2) == 0})
	}
	return r
}

// aggItem is one SELECT item of a generated query: a group column
// (col, fn == "") or an aggregate fn over col (col < 0: count(*)),
// optionally plus 1.
type aggItem struct {
	fn      string
	col     int
	plusOne bool
	qual    bool // spell the column r.<name>
}

// aggKey is one ORDER BY key: an item's alias, a group column by name,
// or an aggregate expression.
type aggKey struct {
	item int     // >= 0: the alias of that item
	expr aggItem // otherwise
	desc bool
}

type aggQuery struct {
	groupBy []int
	qualBy  []bool
	items   []aggItem
	where   int // index into naiveWhere
	keys    []aggKey
	limit   int
}

// naiveWhere is each WHERE predicate with its meaning on a tuple.
var naiveWhere = []struct {
	sql  string
	keep func(Tuple) bool
}{
	{"", func(Tuple) bool { return true }},
	{"x > 0", func(t Tuple) bool { return t[1].(float64) > 0 }},
	{"x <= 0", func(t Tuple) bool { return t[1].(float64) <= 0 }},
	{"b", func(t Tuple) bool { return t[3].(bool) }},
	{"NOT b OR s = 'a'", func(t Tuple) bool { return !t[3].(bool) || t[0].(string) == "a" }},
	{"s <> '' AND x < 1", func(t Tuple) bool { return t[0].(string) != "" && t[1].(float64) < 1 }},
	{"x > 1000", func(Tuple) bool { return false }},
}

func genAggItem(rng *rand.Rand) aggItem {
	switch rng.Intn(5) {
	case 0:
		return aggItem{fn: "count", col: rng.Intn(len(naiveCols)+1) - 1}
	case 1, 2:
		return aggItem{fn: []string{"sum", "avg"}[rng.Intn(2)], col: 1 + rng.Intn(2), plusOne: rng.Intn(3) == 0}
	default:
		it := aggItem{fn: []string{"min", "max"}[rng.Intn(2)], col: rng.Intn(len(naiveCols))}
		it.plusOne = it.col == 1 && rng.Intn(3) == 0
		return it
	}
}

func genAggQuery(rng *rand.Rand) aggQuery {
	q := aggQuery{where: rng.Intn(len(naiveWhere)), limit: -1}
	for _, c := range rng.Perm(len(naiveCols))[:rng.Intn(3)] {
		q.groupBy = append(q.groupBy, c)
		q.qualBy = append(q.qualBy, rng.Intn(2) == 0)
	}
	for k := 0; k < 1+rng.Intn(4); k++ {
		if len(q.groupBy) > 0 && rng.Intn(2) == 0 {
			q.items = append(q.items, aggItem{col: q.groupBy[rng.Intn(len(q.groupBy))], qual: rng.Intn(2) == 0})
			continue
		}
		q.items = append(q.items, genAggItem(rng))
	}
	for k := 0; k < rng.Intn(3); k++ {
		key := aggKey{item: -1, desc: rng.Intn(2) == 0}
		switch {
		case rng.Intn(3) == 0:
			key.item = rng.Intn(len(q.items))
		case len(q.groupBy) > 0 && rng.Intn(2) == 0:
			key.expr = aggItem{col: q.groupBy[rng.Intn(len(q.groupBy))], qual: rng.Intn(2) == 0}
		default:
			key.expr = genAggItem(rng)
		}
		q.keys = append(q.keys, key)
	}
	if rng.Intn(2) == 0 {
		q.limit = rng.Intn(5)
	}
	return q
}

func (it aggItem) sql() string {
	if it.fn == "" {
		if it.qual {
			return "r." + naiveCols[it.col]
		}
		return naiveCols[it.col]
	}
	arg := "*"
	if it.col >= 0 {
		arg = naiveCols[it.col]
	}
	s := it.fn + "(" + arg + ")"
	if it.plusOne {
		s += " + 1"
	}
	return s
}

func (q aggQuery) sql() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for k, it := range q.items {
		if k > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s AS c%d", it.sql(), k)
	}
	b.WriteString(" FROM r")
	if w := naiveWhere[q.where].sql; w != "" {
		b.WriteString(" WHERE " + w)
	}
	for k, c := range q.groupBy {
		if k == 0 {
			b.WriteString(" GROUP BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(aggItem{col: c, qual: q.qualBy[k]}.sql())
	}
	for k, key := range q.keys {
		if k == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		if key.item >= 0 {
			fmt.Fprintf(&b, "c%d", key.item)
		} else {
			b.WriteString(key.expr.sql())
		}
		if key.desc {
			b.WriteString(" DESC")
		}
	}
	if q.limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.limit)
	}
	return b.String()
}

// value is the item over a group: its first row and all its rows.
// undefined is true for avg, min and max over no rows.
func (it aggItem) value(first Tuple, rows []Tuple) (v any, undefined bool) {
	if it.fn == "" {
		return first[it.col], false
	}
	if it.fn == "count" {
		return int64(len(rows)), false
	}
	if len(rows) == 0 && it.fn != "sum" {
		return nil, true
	}
	switch it.fn {
	case "sum", "avg":
		sum := 0.0
		for _, t := range rows {
			if x, ok := t[it.col].(float64); ok {
				sum += x
			} else {
				sum += float64(t[it.col].(int64))
			}
		}
		if it.fn == "avg" {
			sum /= float64(len(rows))
		}
		v = sum
	default:
		v = rows[0][it.col]
		for _, t := range rows[1:] {
			c := naiveOrder(t[it.col], v)
			if it.fn == "min" && c < 0 || it.fn == "max" && c > 0 {
				v = t[it.col]
			}
		}
	}
	if it.plusOne {
		v = v.(float64) + 1
	}
	return v, false
}

// naive answers q over r by a fold that compares each row with every
// group's first row; wantErr is true when an aggregate has no value.
func (q aggQuery) naive(r *Relation) (rows []Tuple, wantErr bool) {
	type group struct {
		first Tuple
		rows  []Tuple
	}
	var groups []*group
	for _, t := range r.Scan() {
		if !naiveWhere[q.where].keep(t) {
			continue
		}
		var g *group
		for _, h := range groups {
			same := true
			for _, c := range q.groupBy {
				same = same && naiveOrder(h.first[c], t[c]) == 0
			}
			if same {
				g = h
				break
			}
		}
		if g == nil {
			g = &group{first: t}
			groups = append(groups, g)
		}
		g.rows = append(g.rows, t)
	}
	if len(q.groupBy) == 0 && len(groups) == 0 {
		groups = []*group{{}}
	}
	var keys [][]any
	for _, g := range groups {
		row := make(Tuple, len(q.items))
		for k, it := range q.items {
			v, undefined := it.value(g.first, g.rows)
			if undefined {
				return nil, true
			}
			row[k] = v
		}
		var ks []any
		for _, key := range q.keys {
			if key.item >= 0 {
				ks = append(ks, row[key.item])
				continue
			}
			v, undefined := key.expr.value(g.first, g.rows)
			if undefined {
				return nil, true
			}
			ks = append(ks, v)
		}
		rows = append(rows, row)
		keys = append(keys, ks)
	}
	idx := make([]int, len(rows))
	for k := range idx {
		idx[k] = k
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, key := range q.keys {
			if c := naiveOrder(keys[idx[a]][k], keys[idx[b]][k]); c != 0 {
				return c < 0 != key.desc
			}
		}
		return false
	})
	sorted := make([]Tuple, len(rows))
	for k, j := range idx {
		sorted[k] = rows[j]
	}
	if q.limit >= 0 && q.limit < len(sorted) {
		sorted = sorted[:q.limit]
	}
	return sorted, false
}

// naiveOrder is the order the executor must give keys of one scalar
// type: false before true, a NaN after every other real, the two zeros
// equal. (Insert admits no ⊥, and the fuzz draws no NaN.)
func naiveOrder(a, b any) int {
	switch x := a.(type) {
	case float64:
		y := b.(float64)
		if nx, ny := math.IsNaN(x), math.IsNaN(y); nx || ny {
			return cmp.Compare(b2i(nx), b2i(ny))
		}
		return cmp.Compare(x, y)
	case int64:
		return cmp.Compare(x, b.(int64))
	case string:
		return strings.Compare(x, b.(string))
	}
	return cmp.Compare(b2i(a.(bool)), b2i(b.(bool)))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sameRows compares two results value by value; reals by their bits, so
// the two zeros differ.
func sameRows(got, want []Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range got {
		if len(got[k]) != len(want[k]) {
			return false
		}
		for c, v := range got[k] {
			if x, ok := v.(float64); ok {
				y, ok := want[k][c].(float64)
				if !ok || math.Float64bits(x) != math.Float64bits(y) {
					return false
				}
			} else if v != want[k][c] {
				return false
			}
		}
	}
	return true
}
