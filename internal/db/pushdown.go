package db

// Selection push-down. forEachRow evaluates the WHERE clause on every
// row of the cross product; a conjunct that reads one FROM item decides
// the same on every row that shares that item's tuple, so pushDown
// evaluates it once per tuple, before the cross product, and the cross
// product runs over the tuples it keeps.
//
// The rule: flatten the WHERE clause into its top-level AND conjuncts.
// A conjunct moves only if it is total and every conjunct to its left
// is total too. One that reads exactly one FROM item filters that
// item's rows; one that reads none is evaluated once. Everything else
// stays where it stood, in the residual clause.
//
// Why this is exact: a total conjunct cannot fail and is never ⊥, so on
// a row where it is false the AND stops at it or at an earlier false
// total conjunct, before anything that can fail, time an operator or
// count a filter outcome; such a row is dropped and shows nothing. On
// every other row each moved conjunct is true, and an AND with a true
// side is its other side, ⊥ included. So the same rows reach the first
// conjunct that can fail, in the same nested-loop order, and errors, ⊥,
// emitted rows and filter counts are unchanged.

// total reports whether e can neither fail nor yield ⊥: a column slot
// (Insert type-checks every value, so a bool column holds bools), a
// literal, or a comparison, NOT or connective over total nodes.
// Arithmetic and negation can fail, and calls and guards run operators.
func total(e node) bool {
	switch ex := e.(type) {
	case *slot, literal:
		return true
	case *comparison:
		return total(ex.l) && total(ex.r)
	case *not:
		return total(ex.e)
	case *connective:
		return total(ex.l) && total(ex.r)
	}
	return false
}

const (
	noFrom    = -1 // a node that reads no FROM item
	manyFroms = -2 // a node that reads more than one
)

// readsFrom folds the FROM items the total node e reads into from:
// noFrom while there is none, the item while there is one, manyFroms
// once there are more.
func readsFrom(e node, from int) int {
	switch ex := e.(type) {
	case *slot:
		if from == noFrom || from == ex.from {
			return ex.from
		}
		return manyFroms
	case *comparison:
		return readsFrom(ex.r, readsFrom(ex.l, from))
	case *not:
		return readsFrom(ex.e, from)
	case *connective:
		return readsFrom(ex.r, readsFrom(ex.l, from))
	}
	return from
}

// splitter takes the movable conjuncts out of a WHERE clause.
type splitter struct {
	q     *queryEnv
	total bool // every conjunct so far is total
	some  bool // every conjunct that reads no FROM item holds
}

// pushDown moves the movable conjuncts out of where: one that reads a
// single FROM item onto that item's filter, one that reads none is
// evaluated here. It returns what is left of where, nil when nothing
// is, and false when a conjunct that reads no FROM item is false, so
// that no row is left. It edits the bound clause in place: bound nodes
// belong to their statement, whose executor runs once.
func (q *queryEnv) pushDown(where node) (node, bool) {
	if where == nil {
		return nil, true
	}
	sp := splitter{q: q, total: true, some: true}
	where = sp.strip(where)
	return where, sp.some
}

// strip returns the AND tree e without the conjuncts it moves, nil when
// it moves them all. A connective that loses one side is its other
// side; the rest of the tree keeps its shape and order.
func (sp *splitter) strip(e node) node {
	if c, ok := e.(*connective); ok && c.op == "AND" {
		c.l, c.r = sp.strip(c.l), sp.strip(c.r)
		if c.l == nil {
			return c.r
		}
		if c.r == nil {
			return c.l
		}
		return c
	}
	if sp.total = sp.total && total(e); !sp.total {
		return e
	}
	switch from := readsFrom(e, noFrom); from {
	case manyFroms:
		return e
	case noFrom:
		hold, _ := sp.q.holds(e)
		sp.some = sp.some && hold
	default:
		b := &sp.q.binds[from]
		if b.filter == nil {
			b.filter = e
		} else {
			b.filter = &connective{op: "AND", l: b.filter, r: e}
		}
	}
	return nil
}

// keepRows evaluates FROM item i's filter on each of its rows, polling
// for cancellation like the row loop, and appends the positions of the
// rows it holds for to kept.
func (q *queryEnv) keepRows(i int, kept []int) ([]int, error) {
	for j, t := range q.binds[i].rel.Scan() {
		if err := q.checkCancel(); err != nil {
			return nil, err
		}
		q.tuples[i] = t
		hold, err := q.holds(q.binds[i].filter)
		if err != nil {
			return nil, err
		}
		if hold {
			kept = append(kept, j)
		}
	}
	return kept, nil
}

// holds evaluates a total predicate on the current row.
func (q *queryEnv) holds(e node) (bool, error) {
	v, err := e.eval(q)
	b, _ := v.(bool)
	return b, err
}
