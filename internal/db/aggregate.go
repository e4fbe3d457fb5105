package db

import (
	"fmt"
	"strconv"
)

// Aggregation: COUNT / SUM / AVG / MIN / MAX with optional GROUP BY over
// column references. A query runs in aggregate mode when it has a GROUP
// BY clause or an aggregate call in its SELECT list; in that mode every
// SELECT item must be a grouping column or an aggregate. The names
// min/max double as the lifted operations on moving reals — a call is an
// aggregate exactly when its argument is a scalar row expression.

// starArg is the parsed form of the `*` argument of count(*).
type starArg struct{}

func (starArg) String() string { return "*" }

// isAggregateCall reports whether the call is an aggregate in row
// context and returns the inner expression (nil for count(*)).
func (q *queryEnv) isAggregateCall(c call) (bool, expr, error) {
	switch c.fn {
	case "count":
		if len(c.args) == 1 {
			if _, star := c.args[0].(starArg); star {
				return true, nil, nil
			}
			return true, c.args[0], nil
		}
	case "sum", "avg", "min", "max":
		if len(c.args) != 1 {
			return false, nil, nil
		}
		_, t, err := q.bind(c.args[0])
		if err != nil {
			return false, nil, err
		}
		switch t {
		case TReal, TInt:
			return true, c.args[0], nil
		case TString, TBool:
			if c.fn == "min" || c.fn == "max" {
				return true, c.args[0], nil
			}
		}
	}
	return false, nil, nil
}

// containsAggregate reports whether the expression tree holds an
// aggregate call at any level.
func (q *queryEnv) containsAggregate(e expr) (bool, error) {
	switch ex := e.(type) {
	case call:
		if agg, _, err := q.isAggregateCall(ex); err != nil {
			return false, err
		} else if agg {
			return true, nil
		}
		for _, a := range ex.args {
			if got, err := q.containsAggregate(a); err != nil || got {
				return got, err
			}
		}
	case binop:
		if got, err := q.containsAggregate(ex.l); err != nil || got {
			return got, err
		}
		return q.containsAggregate(ex.r)
	case notop:
		return q.containsAggregate(ex.e)
	case negop:
		return q.containsAggregate(ex.e)
	}
	return false, nil
}

// accumulator folds one aggregate over the rows of a group.
type accumulator struct {
	fn    string // count sum avg min max
	inner expr   // nil for count(*)
	typ   AttrType

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
	v, err := q.eval(a.inner)
	if err != nil {
		return err
	}
	if isUndef(v) {
		return nil // ⊥ contributes to no aggregate (SQL NULL)
	}
	a.n++
	switch a.fn {
	case "sum", "avg":
		switch x := v.(type) {
		case float64:
			a.sum += x
		case int64:
			a.sum += float64(x)
		}
	case "min":
		if !a.valid || cmpKeys(v, a.minV) < 0 {
			a.minV = v
		}
	case "max":
		if !a.valid || cmpKeys(v, a.maxV) > 0 {
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

func (a *accumulator) resultType() AttrType {
	switch a.fn {
	case "count":
		return TInt
	case "sum", "avg":
		return TReal
	}
	return a.typ
}

// appendGroupKey appends the encoding of one grouping value to a group's
// map key so that two rows share a key exactly when cmpKeys calls all
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
		if x == 0 { // both zeros: -0 takes the spelling of +0, as cmpKeys orders them equal
			x = 0
		}
		key = strconv.AppendFloat(key, x, 'g', -1, 64)
	default:
		key = fmt.Append(key, v)
	}
	return append(key, 0)
}

// runAggregate executes an aggregate-mode query.
func runAggregate(env *queryEnv, stmt *selectStmt, items []selectItem) (*Relation, error) {
	// Classify the select items: group column or aggregate.
	type outCol struct {
		isGroup  bool
		groupRef colRef
		fn       string
		inner    expr
		innerTyp AttrType
	}
	groupIdx := func(ref colRef) int {
		for i, g := range stmt.groupBy {
			if g.name == ref.name && (g.qualifier == ref.qualifier || g.qualifier == "" || ref.qualifier == "") {
				return i
			}
		}
		return -1
	}
	var cols []outCol
	schema := make(Schema, 0, len(items))
	for _, it := range items {
		if ref, isCol := it.e.(colRef); isCol {
			if groupIdx(ref) < 0 {
				return nil, fmt.Errorf("%w: column %q must appear in GROUP BY or inside an aggregate", ErrType, ref)
			}
			_, t, err := env.bind(ref)
			if err != nil {
				return nil, err
			}
			cols = append(cols, outCol{isGroup: true, groupRef: ref})
			schema = append(schema, Column{Name: columnName(schema, it), Type: t})
			continue
		}
		c, isCall := it.e.(call)
		if !isCall {
			return nil, fmt.Errorf("%w: aggregate queries allow group columns and aggregates, got %v", ErrType, it.e)
		}
		agg, inner, err := env.isAggregateCall(c)
		if err != nil {
			return nil, err
		}
		if !agg {
			return nil, fmt.Errorf("%w: %q is not an aggregate", ErrType, c.text)
		}
		oc := outCol{fn: c.fn}
		if inner != nil {
			if oc.inner, oc.innerTyp, err = env.bind(inner); err != nil {
				return nil, err
			}
		}
		acc := accumulator{fn: oc.fn, inner: oc.inner, typ: oc.innerTyp}
		cols = append(cols, oc)
		schema = append(schema, Column{Name: columnName(schema, it), Type: acc.resultType()})
	}
	groupKeys := make([]expr, len(stmt.groupBy))
	for k, g := range stmt.groupBy {
		var t AttrType
		var err error
		if groupKeys[k], t, err = env.bind(g); err != nil {
			return nil, err
		}
		switch t {
		case TReal, TInt, TString, TBool:
		default:
			return nil, fmt.Errorf("%w: GROUP BY needs a scalar column, got %s", ErrType, t)
		}
	}

	type group struct {
		keyVals []any
		accs    []*accumulator
	}
	groups := map[string]*group{}
	var order []*group // first-seen order, which the result keeps
	newGroup := func(keyVals []any) *group {
		gr := &group{keyVals: keyVals}
		for _, oc := range cols {
			if oc.isGroup {
				gr.accs = append(gr.accs, nil)
				continue
			}
			gr.accs = append(gr.accs, &accumulator{fn: oc.fn, inner: oc.inner, typ: oc.innerTyp})
		}
		order = append(order, gr)
		return gr
	}

	var key []byte
	err := env.forEachRow(stmt, func() error {
		keyVals := make([]any, len(groupKeys))
		key = key[:0]
		for k, g := range groupKeys {
			v, err := env.eval(g)
			if err != nil {
				return err
			}
			keyVals[k] = v
			key = appendGroupKey(key, v)
		}
		gr, ok := groups[string(key)]
		if !ok {
			gr = newGroup(keyVals)
			groups[string(key)] = gr
		}
		for _, acc := range gr.accs {
			if acc == nil {
				continue
			}
			if err := acc.add(env); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A global aggregate over zero rows still yields one row.
	if len(stmt.groupBy) == 0 && len(order) == 0 {
		newGroup(nil)
	}

	out := NewRelation("query", schema)
	for _, gr := range order {
		row := make(Tuple, len(cols))
		for i, oc := range cols {
			if oc.isGroup {
				row[i] = gr.keyVals[groupIdx(oc.groupRef)]
				continue
			}
			v := gr.accs[i].result()
			if isUndef(v) {
				return nil, fmt.Errorf("%w: aggregate %s over no defined values", ErrType, oc.fn)
			}
			row[i] = v
		}
		if err := out.Insert(row); err != nil {
			return nil, err
		}
	}
	// ORDER BY over output column names, then LIMIT.
	if len(stmt.orderBy) > 0 {
		idxs := make([]int, len(stmt.orderBy))
		for k, ob := range stmt.orderBy {
			ref, isCol := ob.e.(colRef)
			if !isCol || ref.qualifier != "" {
				return nil, fmt.Errorf("%w: aggregate ORDER BY must name an output column", ErrType)
			}
			i := out.Schema.Index(ref.name)
			if i < 0 {
				return nil, fmt.Errorf("%w: unknown output column %q in ORDER BY", ErrType, ref.name)
			}
			idxs[k] = i
		}
		keys := make([][]any, len(out.tuples))
		for r, t := range out.tuples {
			keys[r] = make([]any, len(idxs))
			for k, i := range idxs {
				keys[r][k] = t[i]
			}
		}
		sortRelation(out, keys, stmt.orderBy)
	}
	if stmt.limit >= 0 && stmt.limit < len(out.tuples) {
		out.tuples = out.tuples[:stmt.limit]
	}
	return out, nil
}
