package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// floatEq bans raw ==/!= on float operands. The Section 5 algorithms
// meet degenerate configurations (touching endpoints, double roots,
// collinear segments) that exact comparison misclassifies after any
// inexact arithmetic; geom.ApproxEq and ApproxZero are the sanctioned
// comparisons. Exempt are named float types (temporal.Instant: unit
// endpoints are copied, never recomputed, Section 3.2.4), constant
// expressions, and the bodies of allowlisted functions.
func floatEq(p *pkg, allow map[string]bool) []finding {
	var out []finding
	for _, f := range p.Files {
		var allowed []ast.Node
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && allow[funcKey(p.Path, fd)] {
				allowed = append(allowed, fd)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) || p.Info.Types[be].Value != nil {
				return true
			}
			for _, fd := range allowed {
				if be.Pos() >= fd.Pos() && be.Pos() < fd.End() {
					return true
				}
			}
			if rawFloat(p, be.X) || rawFloat(p, be.Y) {
				out = append(out, finding{p.Fset.Position(be.OpPos), "float-eq",
					fmt.Sprintf("raw float64 %s comparison; use geom.ApproxEq/ApproxZero or suppress with a reason", be.Op)})
			}
			return true
		})
	}
	return out
}

// rawFloat reports whether e has a predeclared float type; a named type
// with a float underlying type is not one.
func rawFloat(p *pkg, e ast.Expr) bool {
	b, ok := p.Info.Types[e].Type.(*types.Basic)
	return ok && (b.Kind() == types.Float32 || b.Kind() == types.Float64 || b.Kind() == types.UntypedFloat)
}

// funcKey is a declaration's allowlist key: "<pkgpath>#Name" for a
// function, "<pkgpath>#Recv.Name" for a method (pointer and generic
// receivers reduce to the base type name).
func funcKey(pkgPath string, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil {
		recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*"), "[")
		name = recv + "." + name
	}
	return pkgPath + "#" + name
}

// indexOnly enforces the Section 4 representation rule: records and
// index nodes reference database arrays by position, never by stored
// pointer, so a page can be compacted, spilled, or rebuilt from a
// checkpoint and every reference stays valid. A struct field whose type
// reaches *T for a data-model type T breaks that.
func indexOnly(p *pkg, dataPkgs map[string]bool) []finding {
	var out []finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					if bad := pointeeDataType(p.Info.Types[field.Type].Type, dataPkgs); bad != "" {
						out = append(out, finding{p.Fset.Position(field.Pos()), "index-only",
							fmt.Sprintf("struct %s stores a pointer to data-model type %s; reference database arrays by index (§4)", ts.Name.Name, bad)})
					}
				}
			}
			return true
		})
	}
	return out
}

// pointeeDataType walks pointers, slices, arrays, maps and channels and
// returns the first data-model type reached through a pointer, or "".
// Named types are not unfolded: a units.UPoint value is a copy.
func pointeeDataType(t types.Type, dataPkgs map[string]bool) string {
	switch tt := t.(type) {
	case *types.Pointer:
		if named, ok := tt.Elem().(*types.Named); ok && named.Obj().Pkg() != nil && dataPkgs[named.Obj().Pkg().Path()] {
			return types.TypeString(named, nil)
		}
		return pointeeDataType(tt.Elem(), dataPkgs)
	case *types.Slice:
		return pointeeDataType(tt.Elem(), dataPkgs)
	case *types.Array:
		return pointeeDataType(tt.Elem(), dataPkgs)
	case *types.Map:
		return cmp.Or(pointeeDataType(tt.Key(), dataPkgs), pointeeDataType(tt.Elem(), dataPkgs))
	case *types.Chan:
		return pointeeDataType(tt.Elem(), dataPkgs)
	}
	return ""
}
