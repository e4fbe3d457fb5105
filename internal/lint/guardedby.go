package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// guardedBy enforces the moguard field contract: a field annotated
// "guarded by <mu>" may only be read in a method that holds <mu>
// (RLock suffices) and only written under the full write lock;
// "immutable" fields may never be written in a method; and every other
// field of a mutex-bearing struct must carry an annotation, so the
// contract cannot erode by omission. Lock state is tracked
// intraprocedurally: Lock/RLock/Unlock/RUnlock calls on receiver
// mutexes update the state, "defer mu.Unlock()" keeps the lock held to
// the end of the method, branch bodies are analyzed with a copy of the
// state (their effects do not leak past the branch), and function
// literals launched with go start with no locks held. Methods whose
// name ends in "Locked" are callees of the locked region: they enter
// with every struct mutex held, and calling one without holding a lock
// is itself a finding. Plain functions (constructors, recovery paths)
// are exempt — the construction phase owns its values exclusively.
// Test files are exempt: tests access state single-threaded around the
// code under test, and the race detector covers them directly.
type guardedBy struct{}

func (guardedBy) ID() string { return "guarded-by" }

func (guardedBy) Run(pass *Pass) {
	guards := collectStructGuards(pass)
	if len(guards) == 0 {
		return
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			g := guards[recvTypeName(fd.Recv.List[0].Type)]
			if g == nil {
				continue
			}
			recv := recvObject(pass, fd)
			if recv == nil {
				continue
			}
			m := &guardMethod{pass: pass, g: g, recv: recv, name: fd.Name.Name}
			st := map[string]int{}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				for mu := range g.mutexes {
					st[mu] = lockW
				}
			}
			m.block(fd.Body.List, st)
		}
	}
}

const (
	lockNone = 0
	lockR    = 1
	lockW    = 2
)

// recvObject resolves the method's receiver variable, or nil when the
// receiver is anonymous.
func recvObject(pass *Pass, fd *ast.FuncDecl) *types.Var {
	names := fd.Recv.List[0].Names
	if len(names) != 1 || names[0].Name == "_" {
		return nil
	}
	v, _ := pass.Info.Defs[names[0]].(*types.Var)
	return v
}

// guardMethod walks one method body tracking which receiver mutexes are
// held.
type guardMethod struct {
	pass *Pass
	g    *structGuards
	recv *types.Var
	name string
}

func copyState(st map[string]int) map[string]int {
	out := make(map[string]int, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// block analyzes a straight-line statement list, threading lock-state
// effects from one statement to the next.
func (m *guardMethod) block(stmts []ast.Stmt, st map[string]int) {
	for _, s := range stmts {
		m.stmt(s, st)
	}
}

func (m *guardMethod) stmt(s ast.Stmt, st map[string]int) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		if mu, level, ok := m.lockOp(s.X); ok {
			st[mu] = level
			return
		}
		m.read(s.X, st)
	case *ast.DeferStmt:
		// defer mu.Unlock() means the lock is held for the rest of the
		// method, which is exactly what the current state already says;
		// other deferred calls run at exit under unknown state, so only
		// their argument reads are checked here.
		if _, level, ok := m.lockOp(s.Call); ok && level == lockNone {
			return
		}
		for _, arg := range s.Call.Args {
			m.read(arg, st)
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			m.read(rhs, st)
		}
		for _, lhs := range s.Lhs {
			m.write(lhs, st)
		}
	case *ast.IncDecStmt:
		m.write(s.X, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			m.read(r, st)
		}
	case *ast.IfStmt:
		m.stmt(s.Init, st)
		m.read(s.Cond, st)
		m.block(s.Body.List, copyState(st))
		if s.Else != nil {
			m.stmt(s.Else, copyState(st))
		}
	case *ast.ForStmt:
		inner := copyState(st)
		m.stmt(s.Init, inner)
		if s.Cond != nil {
			m.read(s.Cond, inner)
		}
		m.stmt(s.Post, inner)
		m.block(s.Body.List, inner)
	case *ast.RangeStmt:
		m.read(s.X, st)
		inner := copyState(st)
		if s.Key != nil {
			m.write(s.Key, inner)
		}
		if s.Value != nil {
			m.write(s.Value, inner)
		}
		m.block(s.Body.List, inner)
	case *ast.SwitchStmt:
		inner := copyState(st)
		m.stmt(s.Init, inner)
		if s.Tag != nil {
			m.read(s.Tag, inner)
		}
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				cst := copyState(inner)
				for _, e := range clause.List {
					m.read(e, cst)
				}
				m.block(clause.Body, cst)
			}
		}
	case *ast.TypeSwitchStmt:
		inner := copyState(st)
		m.stmt(s.Init, inner)
		m.stmt(s.Assign, inner)
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				m.block(clause.Body, copyState(inner))
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				cst := copyState(st)
				m.stmt(clause.Comm, cst)
				m.block(clause.Body, cst)
			}
		}
	case *ast.BlockStmt:
		m.block(s.List, st)
	case *ast.LabeledStmt:
		m.stmt(s.Stmt, st)
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			m.read(arg, st)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// The new goroutine holds no locks regardless of what the
			// spawning method holds.
			m.block(fl.Body.List, map[string]int{})
		} else {
			m.read(s.Call.Fun, st)
		}
	case *ast.SendStmt:
		m.read(s.Chan, st)
		m.read(s.Value, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						m.read(v, st)
					}
				}
			}
		}
	default:
		// Branch statements and anything else without expressions.
	}
}

// lockOp recognises a Lock/RLock/Unlock/RUnlock call on a receiver
// mutex, returning the mutex name and the resulting lock level.
func (m *guardMethod) lockOp(e ast.Expr) (mu string, level int, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", 0, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	v := m.recvField(sel.X)
	if v == nil {
		return "", 0, false
	}
	name, isMutex := m.g.vars[v]
	if !isMutex || !m.g.mutexes[name] {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock":
		return name, lockW, true
	case "RLock":
		return name, lockR, true
	case "Unlock", "RUnlock":
		return name, lockNone, true
	}
	return "", 0, false
}

// recvField resolves an expression of the form <recv>.<field>
// (possibly parenthesised) to the field's object, or nil.
func (m *guardMethod) recvField(e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || m.pass.Info.Uses[id] != m.recv {
		return nil
	}
	v, _ := m.pass.Info.Uses[sel.Sel].(*types.Var)
	return v
}

// read checks every receiver-field access in the expression subtree
// against the current lock state, requiring at least a read lock.
func (m *guardMethod) read(e ast.Expr, st map[string]int) {
	m.visit(e, st, lockR)
}

// write checks the assignment target: the base receiver field being
// stored through (s.f = v, s.f[i] = v, *s.f = v, s.f.x = v) needs the
// write lock; everything else inside the expression is a read.
func (m *guardMethod) write(e ast.Expr, st map[string]int) {
	target := e
	for {
		target = ast.Unparen(target)
		if v := m.recvField(target); v != nil {
			// The non-target sub-expressions (indexes, slice bounds)
			// were read-checked on the way down.
			m.check(target.(*ast.SelectorExpr), v, st, lockW)
			return
		}
		switch t := target.(type) {
		case *ast.IndexExpr:
			m.read(t.Index, st)
			target = t.X
		case *ast.StarExpr:
			target = t.X
		case *ast.SelectorExpr:
			target = t.X
		case *ast.SliceExpr:
			for _, idx := range []ast.Expr{t.Low, t.High, t.Max} {
				if idx != nil {
					m.read(idx, st)
				}
			}
			target = t.X
		default:
			m.read(e, st)
			return
		}
	}
}

// visit walks an expression checking receiver-field accesses at the
// given requirement level.
func (m *guardMethod) visit(e ast.Expr, st map[string]int, need int) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if v := m.recvField(e); v != nil {
			m.check(e, v, st, need)
			return
		}
		// A Locked-suffixed method selected on the receiver (whether
		// called or captured as a method value) demands a held lock.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && m.pass.Info.Uses[id] == m.recv {
			if fn, ok := m.pass.Info.Uses[e.Sel].(*types.Func); ok {
				m.checkLockedCall(e, fn, st)
			}
		}
		m.visit(e.X, st, need)
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			// Taking the address of a guarded field lets writes escape
			// the lock; require the write lock at the capture site.
			if v := m.recvField(e.X); v != nil {
				m.check(ast.Unparen(e.X).(*ast.SelectorExpr), v, st, lockW)
				return
			}
		}
		m.visit(e.X, st, need)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if v := m.recvField(sel.X); v != nil && m.g.mutexes[m.g.vars[v]] {
				return // mutex method call inside an expression: not an access
			}
		}
		m.visit(e.Fun, st, need)
		for _, arg := range e.Args {
			m.visit(arg, st, lockR)
		}
	case *ast.FuncLit:
		// Literals not launched with go run while the creating scope's
		// locks are still held (sort.Slice callbacks and the like), so
		// they inherit the current state. go statements reset it — see
		// stmt.
		inner := copyState(st)
		m.block(e.Body.List, inner)
	case *ast.ParenExpr:
		m.visit(e.X, st, need)
	case *ast.StarExpr:
		m.visit(e.X, st, need)
	case *ast.IndexExpr:
		m.visit(e.X, st, need)
		m.visit(e.Index, st, lockR)
	case *ast.IndexListExpr:
		m.visit(e.X, st, need)
		for _, idx := range e.Indices {
			m.visit(idx, st, lockR)
		}
	case *ast.SliceExpr:
		m.visit(e.X, st, need)
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			if idx != nil {
				m.visit(idx, st, lockR)
			}
		}
	case *ast.BinaryExpr:
		m.visit(e.X, st, lockR)
		m.visit(e.Y, st, lockR)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			m.visit(el, st, lockR)
		}
	case *ast.KeyValueExpr:
		m.visit(e.Key, st, lockR)
		m.visit(e.Value, st, lockR)
	case *ast.TypeAssertExpr:
		m.visit(e.X, st, lockR)
	default:
		// Idents, literals, types: nothing to check.
	}
}

// checkLockedCall reports a call to a *Locked helper made without
// holding any of the struct's mutexes.
func (m *guardMethod) checkLockedCall(sel *ast.SelectorExpr, fn *types.Func, st map[string]int) {
	if !strings.HasSuffix(fn.Name(), "Locked") {
		return
	}
	for mu := range m.g.mutexes {
		if st[mu] >= lockR {
			return
		}
	}
	m.pass.Report(sel.Pos(), "%s calls %s without holding a lock (the Locked suffix is a held-lock contract)", m.name, fn.Name())
}

// check applies the field's annotation to one access.
func (m *guardMethod) check(sel *ast.SelectorExpr, v *types.Var, st map[string]int, need int) {
	name := m.g.vars[v]
	if m.g.mutexes[name] {
		return // the mutex itself synchronises itself
	}
	fg, annotated := m.g.fields[name]
	if !annotated {
		return // the missing annotation is reported at the declaration
	}
	switch fg.kind {
	case guardUnguarded, guardAtomic:
		// unguarded: deliberately out of scope. atomic: a typed atomic
		// (atomic.Int64, atomic.Pointer[T]) synchronises itself.
	case guardImmutable:
		if need == lockW {
			m.pass.Report(sel.Pos(), "%s writes immutable field %s.%s (moguard: immutable means set only during construction)", m.name, m.g.name, name)
		}
	case guardMutex:
		held := st[fg.mu]
		if held >= need {
			return
		}
		if need == lockW && held == lockR {
			m.pass.Report(sel.Pos(), "%s writes %s.%s holding only %s.RLock (writes need the full Lock)", m.name, m.g.name, name, fg.mu)
			return
		}
		verb := "reads"
		if need == lockW {
			verb = "writes"
		}
		m.pass.Report(sel.Pos(), "%s %s %s.%s without holding %s (moguard: guarded by %s)", m.name, verb, m.g.name, name, fg.mu, fg.mu)
	}
}
