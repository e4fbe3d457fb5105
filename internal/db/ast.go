package db

import "fmt"

// expr is a parsed expression node.
type expr interface {
	fmt.Stringer
}

// literal is a constant of the query text: a number (TReal), a string
// (TString) or TRUE / FALSE (TBool). The parser boxes its value once;
// bind keeps the node as it is, so evaluating it returns that box and
// allocates nothing per row.
type literal struct {
	v any
	t AttrType
}

func (e literal) String() string {
	switch v := e.v.(type) {
	case float64:
		return fmt.Sprintf("%g", v)
	case string:
		return fmt.Sprintf("%q", v)
	}
	return fmt.Sprintf("%v", e.v)
}

// colRef is a column reference, optionally qualified by a relation
// alias: "flight" or "p.flight".
type colRef struct {
	qualifier string // "" when unqualified
	name      string
}

func (e colRef) String() string {
	if e.qualifier == "" {
		return e.name
	}
	return e.qualifier + "." + e.name
}

// call is an operation application, e.g. length(trajectory(flight)).
// fn is the operation's name in the function table (lower case), text
// the name as the query spelled it, which derived column names keep.
type call struct {
	fn   string
	text string
	args []expr
}

func (e call) String() string {
	s := e.text + "("
	for i, a := range e.args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}

// binop is a comparison, boolean connective or arithmetic operation.
type binop struct {
	op   string // < > <= >= = <> AND OR + - * /
	l, r expr
}

func (e binop) String() string { return fmt.Sprintf("(%s %s %s)", e.l, e.op, e.r) }

type notop struct{ e expr }

func (e notop) String() string { return fmt.Sprintf("(NOT %s)", e.e) }

type negop struct{ e expr }

func (e negop) String() string { return fmt.Sprintf("(-%s)", e.e) }

// selectItem is one projection of the SELECT list.
type selectItem struct {
	e     expr
	alias string // "" → derived name
}

// fromItem is one relation in the FROM list with an optional alias.
type fromItem struct {
	rel   string
	alias string
}

// orderItem is one ORDER BY key.
type orderItem struct {
	e    expr
	desc bool
}

// selectStmt is a parsed query.
type selectStmt struct {
	items   []selectItem
	star    bool
	from    []fromItem
	where   expr // nil when absent
	groupBy []colRef
	orderBy []orderItem
	limit   int // -1 when absent
}
