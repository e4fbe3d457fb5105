package lint

import (
	"go/ast"
	"go/token"
)

// goroutineExit demands a provable exit path from every goroutine
// launched as a function literal: each outermost loop in the body must
// be a range loop (it ends with its input, or when the channel
// closes), a constant-bounded for loop, or contain a select with a
// channel receive that returns or breaks — the done/quit-channel
// idiom the ingest age ticker and probe loops use. A loop that provably
// terminates for reasons the analyzer cannot see carries
// //molint:ignore goroutine-exit <reason>. Named-function goroutines
// (go s.loop()) are out of reach intraprocedurally and are not checked;
// test files are exempt — the testing harness joins or times out its
// goroutines.
type goroutineExit struct{}

func (goroutineExit) ID() string { return "goroutine-exit" }

func (goroutineExit) Run(pass *Pass) {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			fl, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			for _, loop := range outermostLoops(fl.Body) {
				if !loopExits(pass, loop) {
					pass.Report(loop.Pos(), "goroutine loop has no provable exit path (select on a done/quit channel, bound the loop, or suppress with molint:ignore goroutine-exit <reason>)")
				}
			}
			return true
		})
	}
}

// loopExits reports whether one outermost goroutine loop provably
// terminates.
func loopExits(pass *Pass, loop ast.Stmt) bool {
	if _, ok := loop.(*ast.RangeStmt); ok {
		return true
	}
	if constantBoundLoop(pass, loop) {
		return true
	}
	return hasExitSelect(loop)
}

// hasExitSelect looks for a select statement (outside nested function
// literals) with a channel-receive case whose body returns or breaks.
func hasExitSelect(loop ast.Stmt) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cc := range sel.Body.List {
			clause, ok := cc.(*ast.CommClause)
			if !ok || clause.Comm == nil || !isChannelReceive(clause.Comm) {
				continue
			}
			if bodyEscapes(clause.Body) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isChannelReceive reports whether the comm statement is a receive
// (<-ch or v := <-ch), as opposed to a send.
func isChannelReceive(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		ue, ok := ast.Unparen(s.X).(*ast.UnaryExpr)
		return ok && ue.Op == token.ARROW
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			ue, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr)
			return ok && ue.Op == token.ARROW
		}
	}
	return false
}

// bodyEscapes reports whether the statements (outside nested function
// literals) contain a return or a break.
func bodyEscapes(stmts []ast.Stmt) bool {
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				found = true
				return false
			case *ast.BranchStmt:
				if n.Tok == token.BREAK {
					found = true
					return false
				}
			}
			return true
		})
	}
	return found
}
