package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The moguard directive grammar makes lock discipline a checked
// contract instead of a comment convention. It has one use — declaring
// how a struct field is synchronised — and four forms:
//
//	// moguard: guarded by <mu>    read/written only while holding <mu>
//	//                             (RLock suffices for reads)
//	// moguard: immutable          set during construction, never
//	//                             written in a method
//	// moguard: atomic             a typed atomic (atomic.Int64, ...)
//	// moguard: unguarded <reason> deliberately unsynchronised
//
// Every field of a struct that declares or embeds a sync.Mutex or
// sync.RWMutex must carry one of them (fields whose type is itself from
// package sync — WaitGroup, Once, the mutexes — are exempt: they
// synchronise themselves). The guarded-by check parses, validates and
// enforces the grammar; suppressions are molint:ignore, never moguard.
const moguardPrefix = "moguard:"

// guardKind classifies one field annotation.
type guardKind int

const (
	guardNone guardKind = iota
	guardMutex
	guardImmutable
	guardAtomic
	guardUnguarded
)

// fieldGuard is one parsed field annotation.
type fieldGuard struct {
	kind guardKind
	mu   string // guardMutex: the mutex field name
}

// structGuards is the annotation table of one named struct type.
type structGuards struct {
	name    string
	mutexes map[string]bool       // mutex-typed field names ("mu", embedded "Mutex")
	fields  map[string]fieldGuard // annotated fields by name
	vars    map[*types.Var]string // field object -> field name
}

// moguardText extracts the directive body from a comment, or "" when
// the comment is not a moguard directive.
func moguardText(c *ast.Comment) string {
	text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
	if !strings.HasPrefix(text, moguardPrefix) {
		return ""
	}
	body := strings.TrimSpace(strings.TrimPrefix(text, moguardPrefix))
	// A nested "//" ends the directive (the fixture files put their
	// want expectations in the same trailing comment).
	body, _, _ = strings.Cut(body, "//")
	return strings.TrimSpace(body)
}

// parseFieldGuard parses one field directive body. ok is false when the
// directive is malformed, with msg saying how.
func parseFieldGuard(body string) (g fieldGuard, msg string) {
	verb, rest, _ := strings.Cut(body, " ")
	rest = strings.TrimSpace(rest)
	switch verb {
	case "guarded":
		by, mu, _ := strings.Cut(rest, " ")
		mu = strings.TrimSpace(mu)
		if by != "by" || mu == "" {
			return g, "moguard: guarded wants the form \"guarded by <mutex>\""
		}
		return fieldGuard{kind: guardMutex, mu: mu}, ""
	case "immutable":
		return fieldGuard{kind: guardImmutable}, ""
	case "atomic":
		return fieldGuard{kind: guardAtomic}, ""
	case "unguarded":
		if rest == "" {
			return g, "moguard: unguarded is missing a reason"
		}
		return fieldGuard{kind: guardUnguarded}, ""
	case "":
		return g, "moguard: directive is missing a verb"
	default:
		return g, "moguard: unknown verb \"" + verb + "\""
	}
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex, directly
// or behind one pointer.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return isSyncType(t) && (obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// isSyncType reports whether t is any type from package sync (a
// self-synchronising primitive: WaitGroup, Once, Mutex, ...), directly
// or behind one pointer.
func isSyncType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// fieldAnnotation finds the moguard directive attached to a field (the
// trailing comment or the doc comment above it). The second result is
// the comment position for error reporting; ok distinguishes "no
// directive" from a directive that parsed empty.
func fieldAnnotation(field *ast.Field) (body string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if text := moguardText(c); text != "" || strings.Contains(c.Text, moguardPrefix) {
				return text, c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// collectStructGuards builds the annotation table for every named
// struct type in the package and files the grammar findings — malformed
// directives, guards naming a non-mutex, unannotated fields of
// mutex-bearing structs — so the annotation debt of a package can never
// silently grow.
func collectStructGuards(pass *Pass) map[string]*structGuards {
	out := map[string]*structGuards{}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			// Test-file helper structs run single-threaded under the
			// race detector; the contract covers production types.
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				g := collectOneStruct(pass, ts.Name.Name, st)
				if g != nil {
					out[g.name] = g
				}
			}
		}
	}
	return out
}

func collectOneStruct(pass *Pass, name string, st *ast.StructType) *structGuards {
	g := &structGuards{
		name:    name,
		mutexes: map[string]bool{},
		fields:  map[string]fieldGuard{},
		vars:    map[*types.Var]string{},
	}
	// The typechecked struct supplies field objects for embedded fields,
	// which have no name ident to look up in Defs.
	var stype *types.Struct
	if obj := pass.Types.Scope().Lookup(name); obj != nil {
		if under := obj.Type().Underlying(); under != nil {
			stype, _ = under.(*types.Struct)
		}
	}
	// First sweep: find the mutex fields, so "guarded by <mu>" can be
	// validated against them in the second sweep.
	type pending struct {
		names []string
		field *ast.Field
		typ   types.Type
	}
	var fields []pending
	for _, field := range st.Fields.List {
		var names []string
		var vars []*types.Var
		if len(field.Names) == 0 { // embedded
			tv, ok := pass.Info.Types[field.Type]
			if !ok {
				continue
			}
			base := tv.Type
			if p, isPtr := base.(*types.Pointer); isPtr {
				base = p.Elem()
			}
			named, ok := base.(*types.Named)
			if !ok {
				continue
			}
			names = []string{named.Obj().Name()}
			var fv *types.Var
			if stype != nil {
				for i := 0; i < stype.NumFields(); i++ {
					if f := stype.Field(i); f.Anonymous() && f.Name() == names[0] {
						fv = f
						break
					}
				}
			}
			vars = []*types.Var{fv}
		} else {
			for _, id := range field.Names {
				names = append(names, id.Name)
				v, _ := pass.Info.Defs[id].(*types.Var)
				vars = append(vars, v)
			}
		}
		tv, ok := pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		for i, n := range names {
			if vars[i] != nil {
				g.vars[vars[i]] = n
			}
			if isMutexType(tv.Type) {
				g.mutexes[n] = true
			}
		}
		fields = append(fields, pending{names: names, field: field, typ: tv.Type})
	}
	// Second sweep: parse annotations and, in scope, report the debt.
	for _, p := range fields {
		body, pos, has := fieldAnnotation(p.field)
		if has {
			fg, msg := parseFieldGuard(body)
			if msg != "" {
				pass.Report(pos, "%s", msg)
				continue
			}
			if fg.kind == guardMutex && !g.mutexes[fg.mu] {
				pass.Report(pos, "moguard: guarded by %s names no mutex field of %s", fg.mu, g.name)
				continue
			}
			for _, n := range p.names {
				g.fields[n] = fg
			}
			continue
		}
		// No annotation: fine unless the struct bears a mutex and the
		// field is not itself a sync primitive.
		if len(g.mutexes) > 0 && !isSyncType(p.typ) {
			for _, n := range p.names {
				if !g.mutexes[n] {
					pass.Report(p.field.Pos(), "field %s of mutex-bearing struct %s needs a moguard annotation (guarded by <mu> / immutable / atomic / unguarded <reason>)", n, g.name)
				}
			}
		}
	}
	if len(g.mutexes) == 0 && len(g.fields) == 0 {
		return nil // nothing to enforce
	}
	return g
}
