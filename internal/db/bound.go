package db

import (
	"cmp"
	"fmt"
	"math"
	"strings"
)

// The executor's evaluating form. bind turns each parsed expression into
// a node of one of the types below, with everything a row does not
// change decided there: a column reference is a slot, a literal keeps
// the value the parser boxed, a comparison carries the comparator of
// its operands' static type and the outcomes it holds for, arithmetic
// and the connectives their decoded operator. Per row a node only
// evaluates its operands and applies what it carries: no type switch,
// no operator string, no literal boxed again. ⊥ (Undef) is whatever
// value is not of the node's static type, so the typed assertion that
// reads an operand also tells it apart.

// node is an expression bound to a query; eval evaluates it against the
// current row (queryEnv.tuples and rows).
type node interface {
	expr
	eval(q *queryEnv) (any, error)
}

func (e literal) eval(*queryEnv) (any, error) { return e.v, nil }

// slot is a column reference bound to a query: the FROM item and the
// column position it resolved to.
type slot struct {
	colRef
	from, col int
}

func (s *slot) eval(q *queryEnv) (any, error) { return q.tuples[s.from][s.col], nil }

// neg is unary minus on a real or an int; ⊥ stays ⊥. The smallest
// int64 has no negation among the int64s: like real arithmetic that
// leaves the finite reals, negating it is a type error.
type neg[T float64 | int64] struct{ e node }

func (n *neg[T]) String() string { return fmt.Sprintf("(-%s)", n.e) }

func (n *neg[T]) eval(q *queryEnv) (any, error) {
	v, err := n.e.eval(q)
	if err != nil {
		return nil, err
	}
	x, ok := v.(T)
	if !ok {
		return v, nil
	}
	// Only 0 and the smallest int64 are their own negation; -0.0 == 0.0
	// and -NaN != NaN, so no real fails here.
	if -x == x && x != 0 {
		return nil, fmt.Errorf("%w: arithmetic overflow", ErrType)
	}
	return -x, nil
}

// not is NOT; ⊥ stays ⊥.
type not struct{ e node }

func (n *not) String() string { return fmt.Sprintf("(NOT %s)", n.e) }

func (n *not) eval(q *queryEnv) (any, error) {
	v, err := n.e.eval(q)
	if err != nil {
		return nil, err
	}
	if b, ok := v.(bool); ok {
		return !b, nil
	}
	return v, nil
}

// connective is AND or OR. The left value equal to decides (false for
// AND, true for OR) is the answer without the right side being
// evaluated; otherwise ⊥ on either side is ⊥, and else the right value
// is the answer.
type connective struct {
	op      string // AND or OR
	decides bool
	l, r    node
}

func (n *connective) String() string { return fmt.Sprintf("(%s %s %s)", n.l, n.op, n.r) }

func (n *connective) eval(q *queryEnv) (any, error) {
	l, err := n.l.eval(q)
	if err != nil {
		return nil, err
	}
	lb, okL := l.(bool)
	if okL && lb == n.decides {
		return lb, nil
	}
	r, err := n.r.eval(q)
	if err != nil {
		return nil, err
	}
	rb, okR := r.(bool)
	if !okL || !okR {
		return Undef{}, nil
	}
	return rb, nil
}

// arith is real arithmetic: op is one of + - * /. ⊥ in either operand is
// ⊥; a zero divisor and a result outside the finite reals are type
// errors.
type arith struct {
	op   byte
	l, r node
}

func (n *arith) String() string { return fmt.Sprintf("(%s %c %s)", n.l, n.op, n.r) }

func (n *arith) eval(q *queryEnv) (any, error) {
	l, err := n.l.eval(q)
	if err != nil {
		return nil, err
	}
	r, err := n.r.eval(q)
	if err != nil {
		return nil, err
	}
	x, okX := l.(float64)
	y, okY := r.(float64)
	if !okX || !okY {
		return Undef{}, nil
	}
	var v float64
	switch n.op {
	case '+':
		v = x + y
	case '-':
		v = x - y
	case '*':
		v = x * y
	default:
		if y == 0 {
			return nil, fmt.Errorf("%w: division by zero", ErrType)
		}
		v = x / y
	}
	if err := finite(v); err != nil {
		return nil, err
	}
	return v, nil
}

// finite passes a finite arithmetic result and turns ±Inf and NaN into
// an error, so that no non-finite number leaves the evaluator's
// arithmetic: JSON cannot carry one.
func finite(v float64) error {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Errorf("%w: arithmetic overflow", ErrType)
	}
	return nil
}

// comparison is one of < <= > >= = <> between two values of one scalar
// type, and holds is the set of outcomes the operator is true for. It
// has one evaluator. A comparison of two total operands (pushdown.go)
// has its type's typed comparator order, and where it reads each
// operand, lv and rv, fixed at bind: its eval is test. Any other has
// the boxed comparator cmp. ⊥ on either side (undefined) is in no set,
// so a comparison with ⊥ is false; a NaN (unordered) is only in <>'s.
type comparison struct {
	op     string
	holds  uint8 // bit 1<<outcome
	cmp    comparator
	order  order
	lv, rv operand
	l, r   node
}

func (n *comparison) String() string { return fmt.Sprintf("(%s %s %s)", n.l, n.op, n.r) }

func (n *comparison) eval(q *queryEnv) (any, error) {
	if n.order != nil {
		return test(n, q.tuples), nil
	}
	l, err := n.l.eval(q)
	if err != nil {
		return nil, err
	}
	r, err := n.r.eval(q)
	if err != nil {
		return nil, err
	}
	return n.holds&(1<<n.cmp(l, r)) != 0, nil
}

// operand is where a typed comparison reads a slot or literal operand:
// column col of FROM item from's current row or, when from is noFrom,
// the value v.
type operand struct {
	from, col int
	v         any
}

// operandOf is where a typed comparison reads its total operand e.
func operandOf(e node) operand {
	switch ex := e.(type) {
	case *slot:
		return operand{from: ex.from, col: ex.col}
	case literal:
		return operand{from: noFrom, v: ex.v}
	}
	return operand{from: noFrom} // a predicate: orderBools tests it
}

func (o operand) at(ts []Tuple) any {
	if o.from != noFrom {
		return ts[o.from][o.col]
	}
	return o.v
}

// outcome is how two values of one scalar type compare.
type outcome uint8

const (
	less outcome = iota
	equal
	greater
	unordered // a NaN took part
	undefined // ⊥ took part
)

// holdsFor is the set of outcomes each comparison operator is true for.
var holdsFor = map[string]uint8{
	"<":  1 << less,
	"<=": 1<<less | 1<<equal,
	">":  1 << greater,
	">=": 1<<greater | 1<<equal,
	"=":  1 << equal,
	"<>": 1<<less | 1<<greater | 1<<unordered,
}

// comparator compares two values of one scalar type; a value not of
// the type is ⊥.
type comparator func(a, b any) outcome

// comparatorOf returns the comparator of a scalar type (false before
// true; a NaN is unordered against everything), nil for a type with no
// order.
func comparatorOf(t AttrType) comparator {
	switch t {
	case TReal:
		return compareOrdered[float64]
	case TInt:
		return compareOrdered[int64]
	case TString:
		return compareStrings
	case TBool:
		return compareBools
	}
	return nil
}

// scalar reports whether t is one of the types with a comparator.
func scalar(t AttrType) bool { return comparatorOf(t) != nil }

func compareOrdered[T float64 | int64](a, b any) outcome {
	x, okX := a.(T)
	y, okY := b.(T)
	if !okX || !okY {
		return undefined
	}
	return ordered(x, y)
}

func compareStrings(a, b any) outcome {
	x, okX := a.(string)
	y, okY := b.(string)
	if !okX || !okY {
		return undefined
	}
	return outcome(strings.Compare(x, y) + 1)
}

func compareBools(a, b any) outcome {
	x, okX := a.(bool)
	y, okY := b.(bool)
	if !okX || !okY {
		return undefined
	}
	return boolOrder(x, y)
}

func ordered[T float64 | int64](x, y T) outcome {
	switch {
	case x < y:
		return less
	case x > y:
		return greater
	case x == y:
		return equal
	}
	return unordered
}

func boolOrder(x, y bool) outcome {
	switch {
	case x == y:
		return equal
	case y:
		return less
	}
	return greater
}

// order compares the two operands of a total comparison typed, on the
// current rows ts: no value is boxed and no node is called through its
// interface. No total operand is ⊥, so the outcome is never undefined.
type order func(n *comparison, ts []Tuple) outcome

// orderOf returns the typed comparator of a scalar type, nil for a type
// with no order; it orders as comparatorOf's does.
func orderOf(t AttrType) order {
	switch t {
	case TReal:
		return orderReals
	case TInt:
		return orderInts
	case TString:
		return orderStrings
	case TBool:
		return orderBools
	}
	return nil
}

func orderReals(n *comparison, ts []Tuple) outcome {
	return ordered(n.lv.at(ts).(float64), n.rv.at(ts).(float64))
}

func orderInts(n *comparison, ts []Tuple) outcome {
	return ordered(n.lv.at(ts).(int64), n.rv.at(ts).(int64))
}

func orderStrings(n *comparison, ts []Tuple) outcome {
	return outcome(strings.Compare(n.lv.at(ts).(string), n.rv.at(ts).(string)) + 1)
}

func orderBools(n *comparison, ts []Tuple) outcome {
	return boolOrder(test(n.l, ts), test(n.r, ts))
}

// keyOrder turns the outcome c of comparing the sort or aggregate keys
// a and b into a total order, which sorting needs: a NaN after every
// other real and ⊥ after every defined value; two NaNs, like two ⊥, are
// equal.
func keyOrder(c outcome, a, b any) int {
	if c <= greater {
		return int(c) - 1
	}
	return cmp.Compare(keyRank(a), keyRank(b))
}

// keyRank places the keys a comparator leaves unordered or undefined: 1
// for a NaN, 2 for ⊥, 0 for everything else.
func keyRank(v any) int {
	if isUndef(v) {
		return 2
	}
	if x, ok := v.(float64); ok && math.IsNaN(x) {
		return 1
	}
	return 0
}

func isUndef(v any) bool {
	_, ok := v.(Undef)
	return ok
}

// apply is a call bound to a query: its bound arguments, the overload
// their types selected, and the argument vector every row's evaluation
// fills (a query is evaluated by one goroutine, and nested calls are
// distinct nodes, so one vector per node suffices). fn names the
// operator it times, src the call as written, which String prints. ⊥
// in an argument is ⊥ without calling the operation.
type apply struct {
	fn   string
	src  call
	args []node
	ov   overload
	argv []any
}

func (ap *apply) String() string { return ap.src.String() }

func (ap *apply) eval(q *queryEnv) (any, error) {
	for i, a := range ap.args {
		v, err := a.eval(q)
		if err != nil {
			return nil, err
		}
		if isUndef(v) {
			return Undef{}, nil
		}
		ap.argv[i] = v
	}
	start := q.clock()
	v, err := ap.ov.fn(q.ctx, ap.argv)
	q.recordOp(ap.fn, start)
	return v, err
}
