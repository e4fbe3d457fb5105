package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// alloc-hot makes allocation behavior on the serving hot paths a
// checked contract. A function declaration whose doc comment carries
// the directive
//
//	// moguard: hotpath
//
// is a hot root: the epoch window/instant/nearest read paths, the
// ingest apply/flush path, live notify/eval, the cache hit path. The
// PR-9 call graph computes the hot region — every function statically
// reachable from a root — and inside it the check flags heap-bound
// allocation sites:
//
//   - map allocation per call (make(map...) or a map literal);
//   - append in a loop to a local slice declared without a capacity
//     hint, and append through a pointer dereference (the push-helper
//     pattern, which reallocates under growth);
//   - any fmt call (formatting allocates its variadic slice and
//     scratch);
//   - string concatenation inside a loop;
//   - boxing a concrete non-pointer value into an interface parameter
//     at a call site;
//   - address-taken composite literals (&T{...}) and new(T), which are
//     heap-bound when they escape;
//   - closures stored into fields or package state or returned (their
//     captures outlive the frame);
//   - defer inside a loop.
//
// A site is suppressed only by an adjacent (same line or line above)
//
//	// moguard: allocok <reason>
//
// directive; the reason is mandatory. Under Options.StaleSuppressions,
// allocok directives that cover no flagged site are themselves findings
// — including directives whose site a fix removed.
type allocHot struct{ cfg *Config }

// siteKey names one source line: where an allocok directive sits or
// which line it covers.
type siteKey struct {
	file string
	line int
}

func (allocHot) ID() string { return "alloc-hot" }

// Run is a no-op: the analysis is whole-program.
func (allocHot) Run(*Pass) {}

// allocokDir is one parsed allocok directive.
type allocokDir struct {
	file   string
	line   int
	col    int
	reason string
}

func (c allocHot) RunProgram(pass *ProgramPass) {
	prog := pass.Prog

	// Roots: function declarations annotated hotpath (doc comment).
	roots := c.collectRoots(pass, prog)
	rootOf := c.hotRegion(prog, roots)

	// allocok directives across every analyzed file, reasons validated
	// up front so a suppression can never silently widen.
	dirs := c.collectAllocok(pass, prog)
	usedDir := map[siteKey]bool{}

	// Scan the hot region in deterministic order.
	for _, k := range prog.keys {
		root, hot := rootOf[k]
		if !hot {
			continue
		}
		fn := prog.funcs[k]
		for _, d := range fn.decls {
			scanAllocSites(pass, d.pkg, d.decl, trimModule(prog, root), dirs, usedDir)
		}
	}

	// Stale allocok audit: a directive that suppressed nothing this run
	// is drift — the site was fixed, moved, or was never hot.
	if pass.Stale {
		keys := make([]siteKey, 0, len(dirs))
		for k := range dirs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].file != keys[j].file {
				return keys[i].file < keys[j].file
			}
			return keys[i].line < keys[j].line
		})
		for _, k := range keys {
			if usedDir[k] {
				continue
			}
			d := dirs[k]
			pass.ReportAt(token.Position{Filename: d.file, Line: d.line, Column: d.col},
				"moguard: allocok suppresses nothing (stale — delete it or fix the drift)")
		}
	}
}

// collectRoots finds hotpath-annotated declarations and validates the
// directive grammar (the verb takes no arguments).
func (allocHot) collectRoots(pass *ProgramPass, prog *Program) []string {
	var roots []string
	seen := map[string]bool{}
	for _, k := range prog.keys {
		fn := prog.funcs[k]
		for _, d := range fn.decls {
			if d.decl.Doc == nil {
				continue
			}
			for _, cm := range d.decl.Doc.List {
				body := moguardText(cm)
				verb, rest, _ := strings.Cut(body, " ")
				if verb != "hotpath" {
					continue
				}
				if strings.TrimSpace(rest) != "" {
					pass.ReportAt(d.pkg.Fset.Position(cm.Pos()),
						"moguard: hotpath takes no arguments")
				}
				if !seen[k] {
					seen[k] = true
					roots = append(roots, k)
				}
			}
		}
	}
	return roots
}

// hotRegion computes reachability from the roots over static call
// edges, attributing every reached function to its first root in
// sorted order (stable across runs).
func (allocHot) hotRegion(prog *Program, roots []string) map[string]string {
	rootOf := map[string]string{}
	var queue []string
	for _, r := range roots {
		if _, ok := rootOf[r]; !ok {
			rootOf[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		fn := prog.funcs[k]
		if fn == nil {
			continue
		}
		// Callees in sorted order so attribution ties break the same way
		// every run.
		callees := map[string]bool{}
		for _, call := range fn.calls {
			callees[call.callee] = true
		}
		order := make([]string, 0, len(callees))
		for cal := range callees {
			order = append(order, cal)
		}
		sort.Strings(order)
		for _, cal := range order {
			if prog.funcs[cal] == nil {
				continue // external or dynamic
			}
			if _, ok := rootOf[cal]; !ok {
				rootOf[cal] = rootOf[k]
				queue = append(queue, cal)
			}
		}
	}
	return rootOf
}

// collectAllocok parses every allocok directive in the analyzed files,
// reporting the ones missing a reason.
func (allocHot) collectAllocok(pass *ProgramPass, prog *Program) map[siteKey]allocokDir {
	out := map[siteKey]allocokDir{}
	for _, pf := range prog.files {
		for _, cg := range pf.f.Comments {
			for _, cm := range cg.List {
				body := moguardText(cm)
				verb, rest, _ := strings.Cut(body, " ")
				if verb != "allocok" {
					continue
				}
				pos := pf.pkg.Fset.Position(cm.Pos())
				reason := strings.TrimSpace(rest)
				if reason == "" {
					pass.ReportAt(pos, "moguard: allocok is missing a reason")
					continue
				}
				out[siteKey{pos.Filename, pos.Line}] = allocokDir{
					file: pos.Filename, line: pos.Line, col: pos.Column, reason: reason,
				}
			}
		}
	}
	return out
}

func trimModule(prog *Program, key string) string {
	return strings.TrimPrefix(key, prog.Module+"/")
}

// allocScan walks one hot declaration body.
type allocScan struct {
	pass    *ProgramPass
	pkg     *Package
	root    string // display name of the attributed hot root
	dirs    map[siteKey]allocokDir
	usedDir map[siteKey]bool
	loops   []posSpan
}

type posSpan struct{ lo, hi token.Pos }

// scanAllocSites flags the allocation sites of one declaration in the
// hot region.
func scanAllocSites(pass *ProgramPass, pkg *Package, fd *ast.FuncDecl, root string, dirs map[siteKey]allocokDir, usedDir map[siteKey]bool) {
	if fd.Body == nil {
		return
	}
	s := &allocScan{pass: pass, pkg: pkg, root: root, dirs: dirs, usedDir: usedDir}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch l := n.(type) {
		case *ast.ForStmt:
			s.loops = append(s.loops, posSpan{l.Body.Pos(), l.Body.End()})
		case *ast.RangeStmt:
			s.loops = append(s.loops, posSpan{l.Body.Pos(), l.Body.End()})
		}
		return true
	})
	uncapped := s.uncappedLocals(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			if s.inLoop(x.Pos()) {
				s.report(x.Pos(), "defer inside a loop allocates a deferred frame per iteration and runs only at return")
			}
		case *ast.CallExpr:
			s.call(x, uncapped)
		case *ast.CompositeLit:
			if tv, ok := s.pkg.Info.Types[x]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					s.report(x.Pos(), "map literal allocates a map on every call; hoist it or use a lookup switch")
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
					s.report(x.Pos(), "address-taken composite literal is heap-bound if it escapes; reuse a buffer or return by value")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && s.inLoop(x.Pos()) && s.isString(x) {
				s.report(x.Pos(), "string concatenation in a loop reallocates on every iteration; use a byte buffer")
			}
		case *ast.AssignStmt:
			s.assign(x)
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if _, isLit := ast.Unparen(r).(*ast.FuncLit); isLit {
					s.report(r.Pos(), "returned closure outlives the frame and heap-allocates its captures")
				}
			}
		}
		return true
	})
}

// uncappedLocals collects local slice variables declared without any
// capacity hint: `var x []T`, `x := []T{}`, or a make whose capacity
// argument is the literal 0.
func (s *allocScan) uncappedLocals(body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.DeclStmt:
			gd, ok := st.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, id := range vs.Names {
					if v, ok := s.pkg.Info.Defs[id].(*types.Var); ok && isSliceType(v.Type()) {
						out[v] = true
					}
				}
			}
		case *ast.AssignStmt:
			if st.Tok != token.DEFINE || len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := s.pkg.Info.Defs[id].(*types.Var)
				if !ok || !isSliceType(v.Type()) {
					continue
				}
				if uncappedInit(ast.Unparen(st.Rhs[i])) {
					out[v] = true
				}
			}
		}
		return true
	})
	return out
}

// uncappedInit reports whether a slice initializer carries no capacity:
// an empty composite literal, or make with a literal-0 capacity.
func uncappedInit(rhs ast.Expr) bool {
	switch x := rhs.(type) {
	case *ast.CompositeLit:
		return len(x.Elts) == 0
	case *ast.CallExpr:
		id, ok := ast.Unparen(x.Fun).(*ast.Ident)
		if !ok || id.Name != "make" || len(x.Args) < 2 {
			return false
		}
		last, ok := ast.Unparen(x.Args[len(x.Args)-1]).(*ast.BasicLit)
		return ok && last.Value == "0"
	}
	return false
}

func (s *allocScan) inLoop(p token.Pos) bool {
	for _, sp := range s.loops {
		if sp.lo <= p && p < sp.hi {
			return true
		}
	}
	return false
}

func (s *allocScan) isString(e ast.Expr) bool {
	tv, ok := s.pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// call handles the call-site rules: builtin make/append, fmt calls, and
// interface boxing.
func (s *allocScan) call(call *ast.CallExpr, uncapped map[*types.Var]bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, isBuiltin := s.pkg.Info.Uses[fun].(*types.Builtin); isBuiltin {
			switch fun.Name {
			case "make":
				if len(call.Args) >= 1 {
					if tv, ok := s.pkg.Info.Types[call.Args[0]]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							s.report(call.Pos(), "allocates a map on every call; reuse scratch or restructure the dedup")
						}
					}
				}
			case "append":
				s.appendCall(call, uncapped)
			}
			return
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, isPkg := s.pkg.Info.Uses[id].(*types.PkgName); isPkg && pn.Imported().Path() == "fmt" {
				s.report(call.Pos(), "fmt.%s allocates its variadic slice and formatting scratch on every call; use strconv appends or a reusable buffer", fun.Sel.Name)
				return // the fmt finding subsumes per-argument boxing
			}
		}
	}
	s.boxing(call)
}

// appendCall flags growth-prone appends: in a loop to a local slice
// with no capacity hint, or through a pointer dereference (the push
// helper shape — its growth reallocates however the caller loops).
func (s *allocScan) appendCall(call *ast.CallExpr, uncapped map[*types.Var]bool) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	if star, ok := dst.(*ast.StarExpr); ok {
		_ = star
		s.report(call.Pos(), "append through a pointer dereference reallocates under growth; have callers preallocate capacity")
		return
	}
	if !s.inLoop(call.Pos()) {
		return
	}
	id, ok := dst.(*ast.Ident)
	if !ok {
		return
	}
	v, ok := s.pkg.Info.Uses[id].(*types.Var)
	if !ok || !uncapped[v] {
		return
	}
	s.report(call.Pos(), "append in a loop to %s, declared without a capacity hint; preallocate with make(%s, 0, n)",
		id.Name, types.TypeString(v.Type(), types.RelativeTo(s.pkg.Types)))
}

// boxing flags concrete non-pointer arguments bound to interface
// parameters: the conversion heap-allocates the value's box.
func (s *allocScan) boxing(call *ast.CallExpr) {
	tv, ok := s.pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() { // conversion, not a call
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	np := params.Len()
	if np == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis != token.NoPos {
				continue // spread passes the slice itself, no boxing
			}
			st, isSlice := params.At(np - 1).Type().Underlying().(*types.Slice)
			if !isSlice {
				continue
			}
			pt = st.Elem()
		case i < np:
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := s.pkg.Info.Types[arg]
		if !ok || at.Type == nil || at.IsNil() {
			continue
		}
		if !boxes(at.Type) {
			continue
		}
		s.report(arg.Pos(), "%s boxes into %s here; pass a pointer-shaped value or keep the concrete type",
			types.TypeString(at.Type, types.RelativeTo(s.pkg.Types)),
			types.TypeString(pt, types.RelativeTo(s.pkg.Types)))
	}
}

// boxes reports whether converting a value of type t to an interface
// heap-allocates: true for concrete non-pointer-shaped types.
func boxes(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() != types.UnsafePointer && b.Kind() != types.Invalid
	}
	return true
}

// assign flags closures stored into retained state (fields or package
// variables): the capture set outlives the frame.
func (s *allocScan) assign(st *ast.AssignStmt) {
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, rhs := range st.Rhs {
		if _, isLit := ast.Unparen(rhs).(*ast.FuncLit); !isLit {
			continue
		}
		if target, ok := retainTarget(s.pkg, st.Lhs[i]); ok {
			s.report(rhs.Pos(), "closure stored into %s outlives the frame and heap-allocates its captures", target)
		}
	}
}

// report files one allocation-site finding unless an adjacent allocok
// directive covers it.
func (s *allocScan) report(p token.Pos, format string, args ...any) {
	pos := s.pkg.Fset.Position(p)
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if d, ok := s.dirs[siteKey{pos.Filename, line}]; ok {
			s.usedDir[siteKey{d.file, d.line}] = true
			s.pass.suppressed[suppKey{pos.Filename, pos.Line, s.pass.check}] = true
			return
		}
	}
	s.pass.ReportAt(pos, "hot path (via %s): %s", s.root, fmt.Sprintf(format, args...))
}

// isSliceType reports whether t (or its underlying type) is a slice.
func isSliceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
