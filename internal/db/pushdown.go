package db

// Selection push-down. A WHERE conjunct decides the same on every row of
// the cross product that shares the rows of the FROM items it reads, so
// the executor evaluates it once per row of the deepest FROM item it
// reads (the last in FROM order), under the current rows of the items
// before that one, and a row it refuses never reaches the bound tree.
//
// The rule: flatten the WHERE clause into its top-level AND conjuncts.
// A conjunct moves only if it is total and every conjunct to its left
// is total too. One that reads a single FROM item filters that item's
// rows once, before the cross product. One that reads several is the
// row test of the deepest of them: the row loop runs it on each row of
// that item, and the rows it refuses take none of the later items' rows
// with them. One that reads none is evaluated once. Everything else
// stays where it stood, in the residual clause. When the first conjunct
// that stays is a guard, the row loop also runs its whole-value
// candidate test (filter.go) on the rows every moved conjunct holds for,
// and counts a pair it refuses as the guard counts one.
//
// Why this is exact: a total conjunct cannot fail and is never ⊥, so on
// a row where it is false the AND stops at it or at an earlier false
// total conjunct, before anything that can fail, time an operator or
// count a filter outcome; such a row is dropped and shows nothing. On
// every other row each moved conjunct is true, and an AND with a true
// side is its other side, ⊥ included. So the same rows reach the first
// conjunct that can fail, in the same nested-loop order, and errors, ⊥,
// emitted rows and filter counts are unchanged. A leading guard is that
// first conjunct: it answers a pair its candidate test refuses false,
// counted, with no clock read, kernel or error, and so does the row
// loop.
//
// Moved conjuncts are decided typed (test) on the current rows, which
// the row loop steps in first: total admits only slots, literals,
// comparisons, NOT and the connectives, whose values are never ⊥, so no
// value is boxed and no node is called through its interface. A total
// comparison has only that evaluator, with its operands fixed at bind:
// its eval is its test, so one left in the residual clause, the SELECT
// list or ORDER BY decides as a moved one does.

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

// noFrom stands for the FROM item of a node that reads none.
const noFrom = -1

// span folds the FROM items the total node e reads into [lo, hi], which
// is [noFrom, noFrom] while there is none.
func span(e node, lo, hi int) (int, int) {
	switch ex := e.(type) {
	case *slot:
		if lo == noFrom || ex.from < lo {
			lo = ex.from
		}
		return lo, max(hi, ex.from)
	case *comparison:
		lo, hi = span(ex.l, lo, hi)
		return span(ex.r, lo, hi)
	case *not:
		return span(ex.e, lo, hi)
	case *connective:
		lo, hi = span(ex.l, lo, hi)
		return span(ex.r, lo, hi)
	}
	return lo, hi
}

// splitter takes the movable conjuncts out of a WHERE clause.
type splitter struct {
	q     *queryEnv
	total bool // every conjunct so far is total
	some  bool // every conjunct that reads no FROM item holds
}

// pushDown moves the movable conjuncts out of where: one that reads a
// single FROM item onto that item's filter, one that reads several onto
// the deepest one's row test, one that reads none is evaluated here; a
// guard that leads what stays becomes q.lead. It returns what is left of
// where, nil when nothing is, and false when a conjunct that reads no
// FROM item is false, so that no row is left. It edits the bound clause
// in place: bound nodes belong to their statement, whose executor runs
// once.
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
	if !total(e) {
		if g, isGuard := e.(*guard); isGuard && sp.total {
			sp.q.lead = g
		}
		sp.total = false
	}
	if !sp.total {
		return e
	}
	lo, hi := span(e, noFrom, noFrom)
	switch {
	case hi == noFrom:
		sp.some = sp.some && test(e, sp.q.tuples)
	case lo == hi:
		b := &sp.q.binds[hi]
		b.filter = and(b.filter, e)
	default:
		b := &sp.q.binds[hi]
		b.test = and(b.test, e)
	}
	return nil
}

// and is the conjunction of a, nil for none, and e.
func and(a, e node) node {
	if a == nil {
		return e
	}
	return &connective{op: "AND", l: a, r: e}
}

// keepRows evaluates FROM item i's filter on each of its rows, polling
// for cancellation like the row loop, and appends the positions of the
// rows it holds for to kept.
func (q *queryEnv) keepRows(i int, kept []int) ([]int, error) {
	b := &q.binds[i]
	for j, t := range b.rel.Scan() {
		if err := q.checkCancel(); err != nil {
			return nil, err
		}
		q.rows[i], q.tuples[i] = j, t
		if test(b.filter, q.tuples) {
			kept = append(kept, j)
		}
	}
	return kept, nil
}

// test decides the total predicate e on the current rows ts.
func test(e node, ts []Tuple) bool {
	switch ex := e.(type) {
	case *comparison:
		return ex.holds&(1<<ex.order(ex, ts)) != 0
	case *not:
		return !test(ex.e, ts)
	case *connective:
		if l := test(ex.l, ts); l == ex.decides {
			return l
		}
		return test(ex.r, ts)
	case *slot:
		return ts[ex.from][ex.col].(bool)
	}
	return e.(literal).v.(bool)
}
