package db

import (
	"fmt"
	"slices"
	"strconv"
)

// Aggregation: COUNT / SUM / AVG / MIN / MAX, optionally per GROUP BY
// column values, as one branch of the executor. bind makes an aggregate
// call in the SELECT list or ORDER BY an aggregate node; a query that has
// one, or a GROUP BY clause, folds its rows into groups and emits one row
// per group through the same projection, sort and LIMIT as any query.
// The names min/max double as the lifted operations on moving reals — a
// call is an aggregate exactly when its argument is a scalar row
// expression.

// starArg is the parsed form of the `*` argument of count(*).
type starArg struct{}

func (starArg) String() string { return "*" }

// aggregate is an aggregate call bound to a query: the call as parsed
// (its text names derived columns) and the index of its accumulator in
// queryEnv.aggs. While a group is emitted it evaluates to that group's
// result.
type aggregate struct {
	call
	acc int
}

func (ag *aggregate) eval(q *queryEnv) (any, error) {
	v := q.aggs[ag.acc].result()
	if isUndef(v) {
		return nil, fmt.Errorf("%w: aggregate %s over no defined values", ErrType, ag.fn)
	}
	return v, nil
}

// aggregateType returns the result type of the aggregate fn over an
// argument of type t: count of anything, sum and avg of a number, min
// and max of a scalar. It is false when fn over t is no aggregate.
func aggregateType(fn string, t AttrType) (AttrType, bool) {
	switch fn {
	case "count":
		return TInt, true
	case "sum", "avg":
		if t == TReal || t == TInt {
			return TReal, true
		}
	case "min", "max":
		if scalar(t) {
			return t, true
		}
	}
	return 0, false
}

// isAggregateName reports whether a call of one argument named fn may be
// an aggregate.
func isAggregateName(fn string) bool {
	switch fn {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

// accumulator folds one aggregate over the rows of a group.
type accumulator struct {
	fn    string     // count sum avg min max
	inner node       // bound argument; nil for count(*)
	cmp   comparator // min and max: the argument type's

	n     int64
	sum   float64
	minV  any
	maxV  any
	valid bool
}

func (a *accumulator) add(q *queryEnv) error {
	if a.inner == nil { // count(*)
		a.n++
		return nil
	}
	v, err := a.inner.eval(q)
	if err != nil {
		return err
	}
	if isUndef(v) {
		return nil // ⊥ contributes to no aggregate (SQL NULL)
	}
	a.n++
	switch a.fn {
	case "sum", "avg":
		if x, isReal := v.(float64); isReal {
			a.sum += x
		} else {
			a.sum += float64(v.(int64))
		}
		if err := finite(a.sum); err != nil {
			return err
		}
	case "min":
		if !a.valid || keyOrder(a.cmp(v, a.minV), v, a.minV) < 0 {
			a.minV = v
		}
	case "max":
		if !a.valid || keyOrder(a.cmp(v, a.maxV), v, a.maxV) > 0 {
			a.maxV = v
		}
	}
	a.valid = true
	return nil
}

func (a *accumulator) result() any {
	switch a.fn {
	case "count":
		return a.n
	case "sum":
		return a.sum
	case "avg":
		if a.n == 0 {
			return Undef{}
		}
		return a.sum / float64(a.n)
	case "min":
		if !a.valid {
			return Undef{}
		}
		return a.minV
	case "max":
		if !a.valid {
			return Undef{}
		}
		return a.maxV
	}
	return Undef{}
}

// appendGroupKey appends the encoding of one grouping value to a group's
// map key so that two rows share a key exactly when keyOrder calls all
// their grouping values equal: strings are length-prefixed (a separator
// could occur inside one), and the two zeros of a real share one
// spelling.
func appendGroupKey(key []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		key = strconv.AppendInt(key, int64(len(x)), 10)
		key = append(key, ':')
		return append(key, x...)
	case float64:
		if x == 0 { // both zeros: -0 takes the spelling of +0, as keyOrder orders them equal
			x = 0
		}
		key = strconv.AppendFloat(key, x, 'g', -1, 64)
	default:
		key = fmt.Append(key, v)
	}
	return append(key, 0)
}

// forEachGroup is the grouping branch of the executor. It folds every
// row forEachRow yields into its group, the rows whose GROUP BY columns
// keyOrder calls equal, and then runs fn once per group in the order the
// groups were first seen. During fn the group's opening row is q.tuples
// and q.rows, so group columns and guards read it, and q.aggs holds the
// group's accumulators. Without GROUP BY there is one group, also over
// no rows.
func (q *queryEnv) forEachGroup(where node, by []slot, fn func() error) error {
	type group struct {
		tuples []Tuple
		rows   []int
		accs   []accumulator
	}
	var groups []group
	index := map[string]int{}
	var key []byte
	err := q.forEachRow(where, func() error {
		key = key[:0]
		for _, s := range by {
			key = appendGroupKey(key, q.tuples[s.from][s.col])
		}
		g, ok := index[string(key)]
		if !ok {
			g = len(groups)
			index[string(key)] = g
			groups = append(groups, group{slices.Clone(q.tuples), slices.Clone(q.rows), slices.Clone(q.aggs)})
		}
		for i := range groups[g].accs {
			if err := groups[g].accs[i].add(q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(by) == 0 && len(groups) == 0 {
		groups = append(groups, group{q.tuples, q.rows, q.aggs}) // no column outside an aggregate reads it
	}
	for _, g := range groups {
		q.tuples, q.rows, q.aggs = g.tuples, g.rows, g.accs
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// checkGrouped fails on a column of e that lies outside every aggregate
// and is none of the GROUP BY columns by.
func checkGrouped(e node, by []slot) error {
	switch ex := e.(type) {
	case *slot:
		for _, g := range by {
			if g.from == ex.from && g.col == ex.col {
				return nil
			}
		}
		return fmt.Errorf("%w: column %q must appear in GROUP BY or inside an aggregate", ErrType, ex.colRef)
	case *neg[float64]:
		return checkGrouped(ex.e, by)
	case *neg[int64]:
		return checkGrouped(ex.e, by)
	case *not:
		return checkGrouped(ex.e, by)
	case *connective:
		return checkGroupedAll(by, ex.l, ex.r)
	case *arith:
		return checkGroupedAll(by, ex.l, ex.r)
	case *comparison:
		return checkGroupedAll(by, ex.l, ex.r)
	case *apply:
		return checkGroupedAll(by, ex.args...)
	case *guard:
		return checkGrouped(ex.inner, by)
	}
	return nil // a literal or an aggregate
}

func checkGroupedAll(by []slot, es ...node) error {
	for _, e := range es {
		if err := checkGrouped(e, by); err != nil {
			return err
		}
	}
	return nil
}
