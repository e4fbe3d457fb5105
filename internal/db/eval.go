package db

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"movingdb/internal/base"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
)

// TIReal is the internal intime(real) type produced by initial/final; it
// can be consumed by val/inst but not stored in a result relation.
const TIReal AttrType = 100

// ErrType reports a type error in a query.
var ErrType = errors.New("db: type error")

// ErrNoFunction reports an unknown operation name.
var ErrNoFunction = errors.New("db: unknown operation")

// Undef is the undefined value ⊥ of the model at the query level:
// operations on nowhere-defined moving values yield it, and it
// propagates strictly through expressions; any comparison involving ⊥
// is false (the SQL NULL discipline, which matches the abstract model's
// treatment of undefined).
type Undef struct{}

func (Undef) String() string { return "undef" }

// Catalog names the relations a query may reference.
type Catalog map[string]*Relation

// overload is one signature of a query-language operation together with
// its implementation. Implementations receive the query context so the
// long-running Section 5 kernels can observe cancellation mid-loop;
// cheap operations ignore it.
type overload struct {
	args []AttrType
	ret  AttrType
	fn   func(ctx context.Context, args []any) (any, error)
}

// funcTable is the query language's one operation table: the
// operations of Section 2 on the discrete types, each with the
// overloads SQL can call. funcNames holds its names in registration
// order, for Operations.
var (
	funcTable = map[string][]overload{}
	funcNames []string
)

func register(name string, args []AttrType, ret AttrType, fn func(context.Context, []any) (any, error)) {
	if _, ok := funcTable[name]; !ok {
		funcNames = append(funcNames, name)
	}
	funcTable[name] = append(funcTable[name], overload{args: args, ret: ret, fn: fn})
}

// Signature is one overload of a query-language operation: the name a
// statement calls, the argument types bind matches and the result type.
type Signature struct {
	Name   string
	Args   []AttrType
	Result AttrType
}

// Operations lists every overload bind resolves a call against: the
// names in the order init registers them, each with its overloads in
// theirs. The slice and its argument lists are the caller's.
func Operations() []Signature {
	var out []Signature
	for _, name := range funcNames {
		for _, ov := range funcTable[name] {
			out = append(out, Signature{Name: name, Args: slices.Clone(ov.args), Result: ov.ret})
		}
	}
	return out
}

func init() {
	// Projection into space and measures.
	register("trajectory", []AttrType{TMPoint}, TLine, func(_ context.Context, a []any) (any, error) {
		return a[0].(moving.MPoint).Trajectory(), nil
	})
	register("length", []AttrType{TLine}, TReal, func(_ context.Context, a []any) (any, error) {
		return a[0].(spatial.Line).Length(), nil
	})
	register("area", []AttrType{TRegion}, TReal, func(_ context.Context, a []any) (any, error) {
		return a[0].(spatial.Region).Area(), nil
	})
	register("area", []AttrType{TMRegion}, TMReal, func(ctx context.Context, a []any) (any, error) {
		return a[0].(moving.MRegion).AreaCtx(ctx)
	})
	register("perimeter", []AttrType{TRegion}, TReal, func(_ context.Context, a []any) (any, error) {
		return a[0].(spatial.Region).Perimeter(), nil
	})

	// Distance and speed.
	register("distance", []AttrType{TMPoint, TMPoint}, TMReal, func(_ context.Context, a []any) (any, error) {
		return a[0].(moving.MPoint).Distance(a[1].(moving.MPoint)), nil
	})
	register("speed", []AttrType{TMPoint}, TMReal, func(_ context.Context, a []any) (any, error) {
		return a[0].(moving.MPoint).Speed(), nil
	})
	register("travelled", []AttrType{TMPoint}, TReal, func(_ context.Context, a []any) (any, error) {
		return a[0].(moving.MPoint).TravelledDistance(), nil
	})

	// Aggregations over moving reals.
	register("atmin", []AttrType{TMReal}, TMReal, func(_ context.Context, a []any) (any, error) {
		return a[0].(moving.MReal).AtMin(), nil
	})
	register("atmax", []AttrType{TMReal}, TMReal, func(_ context.Context, a []any) (any, error) {
		return a[0].(moving.MReal).AtMax(), nil
	})
	register("min", []AttrType{TMReal}, TReal, func(_ context.Context, a []any) (any, error) {
		v, _, ok := a[0].(moving.MReal).Min()
		if !ok {
			return Undef{}, nil
		}
		return v, nil
	})
	register("max", []AttrType{TMReal}, TReal, func(_ context.Context, a []any) (any, error) {
		v, _, ok := a[0].(moving.MReal).Max()
		if !ok {
			return Undef{}, nil
		}
		return v, nil
	})
	register("integral", []AttrType{TMReal}, TReal, func(_ context.Context, a []any) (any, error) {
		return a[0].(moving.MReal).Integral(), nil
	})

	// Interaction with time.
	register("initial", []AttrType{TMReal}, TIReal, func(_ context.Context, a []any) (any, error) {
		p, ok := a[0].(moving.MReal).Initial()
		if !ok {
			return Undef{}, nil
		}
		return p, nil
	})
	register("final", []AttrType{TMReal}, TIReal, func(_ context.Context, a []any) (any, error) {
		p, ok := a[0].(moving.MReal).Final()
		if !ok {
			return Undef{}, nil
		}
		return p, nil
	})
	register("val", []AttrType{TIReal}, TReal, func(_ context.Context, a []any) (any, error) {
		return a[0].(base.Intime[float64]).Val, nil
	})
	register("inst", []AttrType{TIReal}, TReal, func(_ context.Context, a []any) (any, error) {
		return float64(a[0].(base.Intime[float64]).Inst), nil
	})
	register("deftime", []AttrType{TMPoint}, TPeriods, func(_ context.Context, a []any) (any, error) {
		return a[0].(moving.MPoint).DefTime(), nil
	})
	register("duration", []AttrType{TPeriods}, TReal, func(_ context.Context, a []any) (any, error) {
		return a[0].(temporal.Periods).Duration(), nil
	})
	register("duration", []AttrType{TMBool}, TReal, func(_ context.Context, a []any) (any, error) {
		return a[0].(moving.MBool).TrueDuration(), nil
	})
	register("when", []AttrType{TMPoint, TMBool}, TMPoint, func(_ context.Context, a []any) (any, error) {
		return a[0].(moving.MPoint).When(a[1].(moving.MBool)), nil
	})
	// Predicates.
	register("inside", []AttrType{TMPoint, TMRegion}, TMBool, func(ctx context.Context, a []any) (any, error) {
		return a[0].(moving.MPoint).InsideCtx(ctx, a[1].(moving.MRegion))
	})
	register("inside", []AttrType{TMPoint, TRegion}, TMBool, func(ctx context.Context, a []any) (any, error) {
		return a[0].(moving.MPoint).InsideRegionCtx(ctx, a[1].(spatial.Region))
	})
	register("intersects", []AttrType{TMRegion, TMRegion}, TMBool, func(ctx context.Context, a []any) (any, error) {
		return a[0].(moving.MRegion).IntersectsCtx(ctx, a[1].(moving.MRegion))
	})
	register("intersects", []AttrType{TRegion, TRegion}, TBool, func(_ context.Context, a []any) (any, error) {
		return a[0].(spatial.Region).IntersectsRegion(a[1].(spatial.Region)), nil
	})
	register("union", []AttrType{TRegion, TRegion}, TRegion, func(_ context.Context, a []any) (any, error) {
		return a[0].(spatial.Region).Union(a[1].(spatial.Region))
	})
	register("intersection", []AttrType{TRegion, TRegion}, TRegion, func(_ context.Context, a []any) (any, error) {
		return a[0].(spatial.Region).Intersection(a[1].(spatial.Region))
	})
	register("difference", []AttrType{TRegion, TRegion}, TRegion, func(_ context.Context, a []any) (any, error) {
		return a[0].(spatial.Region).Difference(a[1].(spatial.Region))
	})
	register("sometimes", []AttrType{TMBool}, TBool, func(_ context.Context, a []any) (any, error) {
		return a[0].(moving.MBool).Sometimes(), nil
	})
	register("always", []AttrType{TMBool}, TBool, func(_ context.Context, a []any) (any, error) {
		return a[0].(moving.MBool).Always(), nil
	})
	register("present", []AttrType{TMPoint, TReal}, TBool, func(_ context.Context, a []any) (any, error) {
		return a[0].(moving.MPoint).Present(temporal.Instant(a[1].(float64))), nil
	})
}

// binding is one FROM item: the relation and the alias that column
// references resolve against when the query is bound, and what
// forEachRow keeps for the item while it runs the statement.
type binding struct {
	alias string
	rel   *Relation
	// filter is the WHERE conjuncts pushDown moved onto the item that
	// read only it, ANDed, nil for none; kept holds the positions of the
	// rows filter holds for. test is the moved conjuncts whose deepest
	// FROM item it is among several, the item's row test. n is the
	// number of rows the item contributes (see row).
	filter, test node
	kept         []int
	n            int
}

// row is the position in the relation of the item's i-th row.
func (b *binding) row(i int) int {
	if b.kept != nil {
		return b.kept[i]
	}
	return i
}

type queryEnv struct {
	binds []binding
	// The current row: per from-item its tuple and the tuple's position
	// in the relation (which the guards' summaries are indexed by), set
	// by forEachRow.
	tuples []Tuple
	rows   []int
	// lead is the guard that leads the WHERE conjuncts pushDown leaves,
	// nil for none; the row loop runs its candidate test.
	lead *guard
	// ctx carries the request deadline; rec, when non-nil, receives
	// per-operator timings, measured from t0, and the filter outcomes;
	// steps counts evaluated rows for the periodic cancellation check.
	ctx    context.Context
	rec    *obs.Metrics
	t0     time.Time
	steps  int
	filter [numShapes]filterCounts
	// aggOK admits aggregates while the SELECT list and ORDER BY are
	// bound; aggs holds an accumulator per aggregate node, zero until
	// forEachGroup hands it a group's.
	aggOK bool
	aggs  []accumulator
}

// clock starts an operator's timing: the monotonic time since the
// statement started, read only when there is a registry to record it
// in; recordOp records the operator only then.
func (q *queryEnv) clock() time.Duration {
	if q.rec == nil {
		return 0
	}
	return time.Since(q.t0)
}

func (q *queryEnv) recordOp(name string, start time.Duration) {
	if q.rec != nil {
		q.rec.RecordOp(name, q.clock()-start)
	}
}

// cancelCheckRows is how many candidate rows the evaluation loops
// process between context checks.
const cancelCheckRows = 64

// checkCancel returns the (wrapped) context error every
// cancelCheckRows-th row, so a deadline or client disconnect stops the
// cross-product scan in bounded time.
func (q *queryEnv) checkCancel() error {
	q.steps++
	if q.steps%cancelCheckRows != 0 {
		return nil
	}
	if err := q.ctx.Err(); err != nil {
		return fmt.Errorf("db: query canceled: %w", err)
	}
	return nil
}

// resolve finds the from-item and column index of a reference.
func (q *queryEnv) resolve(c colRef) (int, int, error) {
	found := -1
	col := -1
	for bi, b := range q.binds {
		if c.qualifier != "" && b.alias != c.qualifier {
			continue
		}
		if i := b.rel.Schema.Index(c.name); i >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("%w: ambiguous column %q", ErrType, c)
			}
			found, col = bi, i
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("%w: unknown column %q", ErrType, c)
	}
	return found, col, nil
}

// bind statically types an expression and binds it to the query: every
// column reference becomes a slot, every call an apply carrying the
// overload its argument types select, every operator the node that
// evaluates it with what its operand types decide (bound.go). It runs
// once per expression per query; per row the bound nodes evaluate
// without resolving names, typing values or searching overloads again.
// A node of one of the filtered predicate shapes is bound as a guard
// (filter.go).
func (q *queryEnv) bind(e expr) (node, AttrType, error) {
	switch ex := e.(type) {
	case literal:
		return e.(node), ex.t, nil // the parser's box, not a copy
	case colRef:
		bi, ci, err := q.resolve(ex)
		if err != nil {
			return nil, 0, err
		}
		return &slot{colRef: ex, from: bi, col: ci}, q.binds[bi].rel.Schema[ci].Type, nil
	case negop:
		inner, t, err := q.bind(ex.e)
		if err != nil {
			return nil, 0, err
		}
		switch t {
		case TReal:
			return &neg[float64]{e: inner}, t, nil
		case TInt:
			return &neg[int64]{e: inner}, t, nil
		}
		return nil, 0, fmt.Errorf("%w: cannot negate %s", ErrType, t)
	case notop:
		inner, t, err := q.bind(ex.e)
		if err != nil {
			return nil, 0, err
		}
		if t != TBool {
			return nil, 0, fmt.Errorf("%w: NOT needs bool, got %s", ErrType, t)
		}
		return &not{e: inner}, TBool, nil
	case binop:
		l, lt, err := q.bind(ex.l)
		if err != nil {
			return nil, 0, err
		}
		r, rt, err := q.bind(ex.r)
		if err != nil {
			return nil, 0, err
		}
		switch ex.op {
		case "AND", "OR":
			if lt != TBool || rt != TBool {
				return nil, 0, fmt.Errorf("%w: %s needs bools", ErrType, ex.op)
			}
			return &connective{op: ex.op, decides: ex.op == "OR", l: l, r: r}, TBool, nil
		case "+", "-", "*", "/":
			if lt != TReal || rt != TReal {
				return nil, 0, fmt.Errorf("%w: arithmetic needs reals, got %s and %s", ErrType, lt, rt)
			}
			return &arith{op: ex.op[0], l: l, r: r}, TReal, nil
		}
		if lt != rt {
			return nil, 0, fmt.Errorf("%w: comparing %s with %s", ErrType, lt, rt)
		}
		cmp := comparatorOf(lt)
		if cmp == nil {
			return nil, 0, fmt.Errorf("%w: cannot compare values of type %s", ErrType, lt)
		}
		holds, ok := holdsFor[ex.op]
		if !ok {
			return nil, 0, fmt.Errorf("%w: bad comparison %q", ErrSyntax, ex.op)
		}
		c := &comparison{op: ex.op, holds: holds, l: l, r: r}
		if total(l) && total(r) {
			c.order, c.lv, c.rv = orderOf(lt), operandOf(l), operandOf(r)
		} else {
			c.cmp = cmp
		}
		return q.guarded(c), TBool, nil
	case call:
		// Where aggregates are admitted, a one-argument count, sum, avg,
		// min or max is an aggregate when aggregateType takes its
		// argument's type, else an operation call (min of an mreal).
		// The argument is bound with aggregates off: none nests.
		agg := q.aggOK && len(ex.args) == 1 && isAggregateName(ex.fn)
		if agg {
			q.aggOK = false
			defer func() { q.aggOK = true }()
			if _, star := ex.args[0].(starArg); star && ex.fn == "count" {
				return q.aggregate(ex, nil, TInt, TInt)
			}
		}
		args := make([]node, len(ex.args))
		argTypes := make([]AttrType, len(ex.args))
		for i, a := range ex.args {
			if _, star := a.(starArg); star {
				return nil, 0, fmt.Errorf("%w: * is only valid in count(*) of an aggregate query", ErrType)
			}
			var err error
			if args[i], argTypes[i], err = q.bind(a); err != nil {
				return nil, 0, err
			}
		}
		if agg {
			if t, ok := aggregateType(ex.fn, argTypes[0]); ok {
				return q.aggregate(ex, args[0], argTypes[0], t)
			}
		}
		ov, err := lookupOverload(ex, argTypes)
		if err != nil {
			return nil, 0, err
		}
		return q.guarded(fused(&apply{fn: ex.fn, src: ex, args: args, ov: ov, argv: make([]any, len(args))})), ov.ret, nil
	case starArg:
		return nil, 0, fmt.Errorf("%w: * is only valid in count(*)", ErrType)
	}
	return nil, 0, fmt.Errorf("%w: unhandled expression %v", ErrType, e)
}

// aggregate binds the aggregate call c over the bound argument inner
// (nil for count(*)) of type argType, whose result has type t.
func (q *queryEnv) aggregate(c call, inner node, argType, t AttrType) (node, AttrType, error) {
	q.aggs = append(q.aggs, accumulator{fn: c.fn, inner: inner, cmp: comparatorOf(argType)})
	return &aggregate{call: c, acc: len(q.aggs) - 1}, t, nil
}

// lookupOverload finds the overload of the called operation that takes
// the given argument types.
func lookupOverload(c call, args []AttrType) (overload, error) {
	ovs, ok := funcTable[c.fn]
	if !ok {
		return overload{}, fmt.Errorf("%w: %q", ErrNoFunction, c.text)
	}
	for _, ov := range ovs {
		if slices.Equal(ov.args, args) {
			return ov, nil
		}
	}
	return overload{}, fmt.Errorf("%w: no overload of %q for %v", ErrType, c.text, args)
}

// areaExtrema are the kernels of max(area(e)) and min(area(e)) for a
// moving region e, which bind fuses into one call: each folds the area's
// units as the moving region produces them, without building the moving
// real, and answers what max or min of it answers.
var areaExtrema = map[string]overload{
	"max": {args: []AttrType{TMRegion}, ret: TReal, fn: func(ctx context.Context, a []any) (any, error) {
		return definedReal(a[0].(moving.MRegion).AreaMaxCtx(ctx))
	}},
	"min": {args: []AttrType{TMRegion}, ret: TReal, fn: func(ctx context.Context, a []any) (any, error) {
		return definedReal(a[0].(moving.MRegion).AreaMinCtx(ctx))
	}},
}

// definedReal is a real extremum as the query sees it: ⊥ where there is
// none.
func definedReal(v float64, ok bool, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	if !ok {
		return Undef{}, nil
	}
	return v, nil
}

// fused returns the bound call ap as one call of its areaExtrema kernel
// when it is max or min (the operations, not the aggregates) of the area
// of a moving region, and ap itself otherwise. The fused call keeps ap's
// text and evaluates area's argument; it times area, once, and no max or
// min, as a guarded sometimes(inside) times inside and no sometimes.
func fused(ap *apply) *apply {
	kernel, ok := areaExtrema[ap.fn]
	if !ok {
		return ap
	}
	if _, ok := applyOf(ap, ap.fn, TMReal); !ok {
		return ap
	}
	area, ok := applyOf(ap.args[0], "area", TMRegion)
	if !ok {
		return ap
	}
	return &apply{fn: area.fn, src: ap.src, args: area.args, ov: kernel, argv: area.argv}
}

// Query parses and executes a SELECT statement against the catalog and
// returns the result relation. The dialect covers the paper's Section 2
// examples: cross joins with aliases, the model's operations as
// functions, and boolean/comparison/arithmetic expressions.
func Query(cat Catalog, sql string) (*Relation, error) {
	return QueryContext(context.Background(), cat, sql)
}

// QueryContext is Query under a context: the evaluation loops and the
// long-running lifted operators (inside, intersects, area) observe
// cancellation, so a deadline or a disconnected client stops the work
// in bounded time rather than running the cross product to completion.
// When the context carries an obs registry (obs.NewContext), operator
// timings are recorded into it.
func QueryContext(ctx context.Context, cat Catalog, sql string) (*Relation, error) {
	toks, err := lexStatement(sql)
	return Statement{toks: toks, err: err}.query(ctx, cat)
}

// query parses and executes the statement against the catalog.
func (st Statement) query(ctx context.Context, cat Catalog) (*Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("db: query canceled: %w", err)
	}
	if st.err != nil {
		return nil, st.err
	}
	stmt, err := parseTokens(st.toks)
	if err != nil {
		return nil, err
	}
	env := &queryEnv{ctx: ctx, rec: obs.FromContext(ctx), binds: make([]binding, 0, len(stmt.from))}
	if env.rec != nil {
		env.t0 = time.Now()
	}
	defer env.flushFilterCounts()
	for _, f := range stmt.from {
		rel, ok := cat[f.rel]
		if !ok {
			return nil, fmt.Errorf("%w: unknown relation %q", ErrSchema, f.rel)
		}
		env.binds = append(env.binds, binding{alias: f.alias, rel: rel})
	}
	// Expand * and build the output schema by static typing.
	items := stmt.items
	if stmt.star {
		items = nil
		for _, b := range env.binds {
			for _, col := range b.rel.Schema {
				ref := colRef{name: col.Name}
				if len(env.binds) > 1 {
					ref.qualifier = b.alias
				}
				items = append(items, selectItem{e: ref})
			}
		}
	}
	// The plan: every expression the executor evaluates, bound once.
	// Aggregates are admitted in the SELECT list and ORDER BY only.
	env.aggOK = true
	schema := make(Schema, 0, len(items))
	project := make([]node, len(items))
	for k, it := range items {
		var t AttrType
		var err error
		if project[k], t, err = env.bind(it.e); err != nil {
			return nil, err
		}
		if t == TIReal {
			return nil, fmt.Errorf("%w: intime values cannot be selected; wrap with val() or inst()", ErrType)
		}
		schema = append(schema, Column{Name: columnName(schema, it), Type: t})
	}
	env.aggOK = false
	where, err := env.bindWhere(stmt.where)
	if err != nil {
		return nil, err
	}
	groupBy := make([]slot, len(stmt.groupBy))
	for k, g := range stmt.groupBy {
		e, t, err := env.bind(g)
		if err != nil {
			return nil, err
		}
		if !scalar(t) {
			return nil, fmt.Errorf("%w: GROUP BY needs a scalar column, got %s", ErrType, t)
		}
		groupBy[k] = *e.(*slot)
	}
	// An ORDER BY key that names an output alias sorts on the projected
	// column (the later of two items with that alias): the row already
	// holds its value. Every other key is bound as an expression.
	aliasCol := map[string]int{}
	for k, it := range items {
		if it.alias != "" {
			aliasCol[it.alias] = k
		}
	}
	env.aggOK = true
	keys := make([]sortKey, len(stmt.orderBy))
	for k, ob := range stmt.orderBy {
		key := &keys[k]
		key.col, key.desc = -1, ob.desc
		if ref, isCol := ob.e.(colRef); isCol && ref.qualifier == "" {
			if c, ok := aliasCol[ref.name]; ok {
				key.col = c
			}
		}
		var t AttrType
		if key.col >= 0 {
			t = schema[key.col].Type
		} else if key.e, t, err = env.bind(ob.e); err != nil {
			return nil, err
		}
		if key.cmp = comparatorOf(t); key.cmp == nil {
			return nil, fmt.Errorf("%w: ORDER BY needs an orderable type, got %s", ErrType, t)
		}
	}
	// A query groups when it has GROUP BY or an aggregate. Then every
	// column outside an aggregate, in an item or a key, is a GROUP BY
	// column (a key that reads an alias's column is not bound).
	grouped := len(groupBy) > 0 || len(env.aggs) > 0
	if grouped {
		for _, e := range project {
			if err := checkGrouped(e, groupBy); err != nil {
				return nil, err
			}
		}
		for _, key := range keys {
			if key.e == nil {
				continue
			}
			if err := checkGrouped(key.e, groupBy); err != nil {
				return nil, err
			}
		}
	}
	out := NewRelation("query", schema)
	var sortKeys [][]any
	emit := func() error {
		row := make(Tuple, len(project))
		for k, e := range project {
			v, err := e.eval(env)
			if err != nil {
				return err
			}
			row[k] = v
		}
		if len(keys) > 0 {
			vals := make([]any, len(keys))
			for k, key := range keys {
				if key.col >= 0 {
					vals[k] = row[key.col]
					continue
				}
				v, err := key.e.eval(env)
				if err != nil {
					return err
				}
				vals[k] = v
			}
			sortKeys = append(sortKeys, vals)
		}
		return out.Insert(row)
	}
	if grouped {
		err = env.forEachGroup(where, groupBy, emit)
	} else {
		err = env.forEachRow(where, emit)
	}
	if err != nil {
		return nil, err
	}
	if len(keys) > 0 {
		sortRelation(out, sortKeys, keys)
	}
	if stmt.limit >= 0 && stmt.limit < len(out.tuples) {
		out.tuples = out.tuples[:stmt.limit]
	}
	return out, nil
}

// columnName names the result column of item, the next after schema:
// the item's alias, else its expression text, with "#<position>"
// appended when an earlier column has the name.
func columnName(schema Schema, it selectItem) string {
	name := it.alias
	if name == "" {
		name = it.e.String()
	}
	if schema.Index(name) >= 0 {
		name = fmt.Sprintf("%s#%d", name, len(schema))
	}
	return name
}

// bindWhere binds a statement's WHERE clause, nil when it has none, and
// checks that it is a predicate.
func (q *queryEnv) bindWhere(where expr) (node, error) {
	if where == nil {
		return nil, nil
	}
	bound, t, err := q.bind(where)
	if err != nil {
		return nil, err
	}
	if t != TBool {
		return nil, fmt.Errorf("%w: WHERE must be bool, got %s", ErrType, t)
	}
	return bound, nil
}

// forEachRow is the executor's one row loop: it runs fn on every row of
// the cross product of the FROM relations, in nested-loop order (the
// last FROM item varies fastest), that the bound WHERE clause keeps,
// checking for cancellation as it goes. The conjuncts pushDown moves
// filter each FROM item's rows once, first, or test the rows of the
// deepest item they read inside the loop (pushdown.go); the rest is
// evaluated on the rows they keep. During fn the row is q.tuples and
// q.rows. A nil where keeps every row.
func (q *queryEnv) forEachRow(where node, fn func() error) error {
	q.tuples = make([]Tuple, len(q.binds))
	for _, b := range q.binds {
		if b.rel.Len() == 0 {
			return nil
		}
	}
	where, some := q.pushDown(where)
	if !some {
		return nil
	}
	// q.rows and the filtered items' row lists share one allocation.
	room := len(q.binds)
	for _, b := range q.binds {
		if b.filter != nil {
			room += b.rel.Len()
		}
	}
	buf := make([]int, room)
	q.rows, buf = buf[:len(q.binds)], buf[len(q.binds):]
	for i := range q.binds {
		b := &q.binds[i]
		b.n = b.rel.Len()
		if b.filter != nil {
			var err error
			if b.kept, err = q.keepRows(i, buf[:0:b.n]); err != nil || len(b.kept) == 0 {
				return err
			}
			buf, b.n = buf[b.n:], len(b.kept)
		}
	}
	return q.scan(0, where, fn)
}

// scan runs the rows of FROM item k and, under each one its row test
// keeps, the rows of the items after it. Each row is stepped into
// q.tuples and q.rows before it is tested. A row the test refuses counts
// as one row for the cancellation check: it stands for all the rows it
// takes with it.
func (q *queryEnv) scan(k int, where node, fn func() error) error {
	if k == len(q.binds)-1 {
		return q.scanLast(where, fn)
	}
	b := &q.binds[k]
	for i := range b.n {
		row := b.row(i)
		q.rows[k], q.tuples[k] = row, b.rel.tuples[row]
		if b.test != nil && !test(b.test, q.tuples) {
			if err := q.checkCancel(); err != nil {
				return err
			}
			continue
		}
		if err := q.scan(k+1, where, fn); err != nil {
			return err
		}
	}
	return nil
}

// scanLast runs the rows of the last FROM item under the current rows
// of the others, checking for cancellation every cancelCheckRows rows.
// Each row is stepped into q.tuples and q.rows; the item's row test, the
// leading guard's candidate test and the residual WHERE clause then
// decide it, and fn runs on it if they hold.
func (q *queryEnv) scanLast(where node, fn func() error) error {
	k := len(q.binds) - 1
	b := &q.binds[k]
	rt, lead, tuples := b.test, q.lead, b.rel.tuples
	for i := range b.n {
		if err := q.checkCancel(); err != nil {
			return err
		}
		row := b.row(i)
		q.rows[k], q.tuples[k] = row, tuples[row]
		if rt != nil && !test(rt, q.tuples) {
			continue
		}
		if lead != nil && !q.admit() {
			if debugFilter { // the refused pair's expression is still run
				if err := q.recheck(lead, false, moving.NoObject); err != nil {
					return err
				}
			}
			continue
		}
		if where != nil {
			v, err := where.eval(q)
			if err != nil {
				return err
			}
			if keep, _ := v.(bool); !keep { // ⊥ filters the row, like SQL NULL
				continue
			}
		}
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// sortKey is an ORDER BY key bound to a query: the projected column it
// reads (col >= 0) or else its bound expression, the comparator of its
// type and its direction.
type sortKey struct {
	col  int
	e    node
	cmp  comparator
	desc bool
}

// sortRelation stably sorts the result rows by the evaluated ORDER BY
// keys, vals[i] for row i; NaN keys sort after every other real and ⊥
// keys last (keyOrder).
func sortRelation(out *Relation, vals [][]any, keys []sortKey) {
	idx := make([]int, len(out.tuples))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		va, vb := vals[idx[a]], vals[idx[b]]
		for k, key := range keys {
			c := keyOrder(key.cmp(va[k], vb[k]), va[k], vb[k])
			if c == 0 {
				continue
			}
			if key.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	tuples := make([]Tuple, len(out.tuples))
	for i, j := range idx {
		tuples[i] = out.tuples[j]
	}
	out.tuples = tuples
}
