package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Config scopes the checks to package paths. All paths are full import
// paths; an external test package ("…/storage_test") matches its base
// package's entry. Nil slices mean "nowhere".
type Config struct {
	// FloatEqPkgs are the packages where raw float64 ==/!= is banned
	// (the Section 5 kernel packages). Test files are exempt: tests
	// assert bit-exact determinism on purpose.
	FloatEqPkgs []string
	// FloatEqAllow lists functions whose bodies may compare floats
	// exactly, keyed "<pkgpath>#<Recv.>Name" — the eps-helper set plus
	// the Section 3.2.2 order definitions, where exactness IS the
	// specification.
	FloatEqAllow map[string]bool
	// IndexOnlyPkgs are the packages whose struct types must reference
	// database arrays by index, never by stored pointer (Section 4).
	IndexOnlyPkgs []string
	// IndexOnlyDataPkgs are the packages whose types count as database
	// array elements for the index-only rule.
	IndexOnlyDataPkgs []string
}

// DefaultConfig returns the repository scope: which packages each
// convention governs. module is the module path from go.mod.
func DefaultConfig(module string) *Config {
	j := func(rel string) string { return module + "/" + rel }
	cfg := &Config{
		FloatEqPkgs: []string{j("internal/geom"), j("internal/spatial"), j("internal/units"), j("internal/moving")},
		FloatEqAllow: map[string]bool{
			// The Section 3.2.2 total orders on points, segments, and
			// halfsegments are defined over exact coordinates: two
			// values are the same representation iff their floats are
			// bit-equal, so these comparisons are the specification.
			j("internal/geom") + "#Point.Less":      true,
			j("internal/geom") + "#Point.Cmp":       true,
			j("internal/geom") + "#Segment.Cmp":     true,
			j("internal/geom") + "#HalfSegment.Cmp": true,
			// EqualFunc is unit-function identity for the minimality
			// constraint of Section 3.2.4: adjacent units merge only
			// when their representations are identical, which must be
			// exact or merging would corrupt the unique representation.
			j("internal/units") + "#Const.EqualFunc":  true,
			j("internal/units") + "#UPoint.EqualFunc": true,
			j("internal/units") + "#UReal.EqualFunc":  true,
			j("internal/units") + "#MSeg.EqualFunc":   true,
		},
		IndexOnlyPkgs: []string{j("internal/storage"), j("internal/index")},
		IndexOnlyDataPkgs: []string{
			j("internal/geom"), j("internal/spatial"), j("internal/units"),
			j("internal/moving"), j("internal/temporal"), j("internal/mapping"), j("internal/base"),
		},
	}
	// The golden fixtures under internal/lint/testdata are in scope so
	// that running molint directly on a fixture directory demonstrates
	// the check (and exits non-zero). The recursive ./... walk skips
	// testdata directories, so the default repo run never loads them.
	fix := func(rel string) string { return j("internal/lint/testdata/src/" + rel) }
	cfg.FloatEqPkgs = append(cfg.FloatEqPkgs, fix("floateq"), fix("suppress"))
	cfg.FloatEqAllow[fix("floateq")+"#allowed"] = true
	cfg.FloatEqAllow[fix("floateq")+"#key.Cmp"] = true
	cfg.IndexOnlyPkgs = append(cfg.IndexOnlyPkgs, fix("indexonly"))
	cfg.IndexOnlyDataPkgs = append(cfg.IndexOnlyDataPkgs, fix("indexonly"))
	return cfg
}

// Checks returns the full analyzer suite over cfg.
func Checks(cfg *Config) []Check {
	return []Check{floatEq{cfg}, indexOnly{cfg}}
}

// inScope reports whether a package path matches one of the scope
// entries, treating an external test package as its base package.
func inScope(scope []string, pkgPath string) bool {
	base := strings.TrimSuffix(pkgPath, "_test")
	for _, s := range scope {
		if s == pkgPath || s == base {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file position is in a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// funcKey builds the FloatEqAllow key for a declaration:
// "<pkgpath>#Name" for functions, "<pkgpath>#Recv.Name" for methods
// (pointer receivers and generic receivers reduce to the base type
// name).
func funcKey(pkgPath string, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if tn := recvTypeName(fd.Recv.List[0].Type); tn != "" {
			name = tn + "." + name
		}
	}
	return pkgPath + "#" + name
}

func recvTypeName(expr ast.Expr) string {
	for {
		switch t := expr.(type) {
		case *ast.StarExpr:
			expr = t.X
		case *ast.IndexExpr:
			expr = t.X
		case *ast.IndexListExpr:
			expr = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
