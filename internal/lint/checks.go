package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Config scopes the checks to package paths. All paths are full import
// paths; an external test package ("…/storage_test") matches its base
// package's entry. Nil slices mean "nowhere" except where documented;
// guarded-by and goroutine-exit take no scope — a mutex-bearing struct
// or a go statement is a concurrency contract wherever it lives.
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
	// CtxLoopPkgs are the packages whose exported ...Ctx functions
	// must poll cancellation inside loops. Nil means every analyzed
	// package (the default: the convention is repo-wide).
	CtxLoopPkgs []string
	// ErrDropPkgs are the packages (tests included) where discarding
	// an error result is banned — the WAL/checkpoint/recovery surface.
	ErrDropPkgs []string
	// DetPaths maps deterministic packages to the file basenames the
	// rule covers; a nil file list covers the whole package. Test
	// files are exempt.
	DetPaths map[string][]string
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
		ErrDropPkgs: []string{j("internal/ingest"), j("internal/storage")},
		DetPaths: map[string][]string{
			j("internal/fault"):    nil,
			j("internal/workload"): nil,
			j("internal/index"):    nil,
			// A cached result must be a pure function of (query, epoch):
			// the whole cache package is deterministic (maphash seeding
			// is allowed — it never reaches a result).
			j("internal/cache"): nil,
			// Only the live object table / compaction path of ingest is
			// declared deterministic — epochs included, since their
			// purity is what makes them sound cache keys; the pipeline
			// around them measures real time for metrics and health on
			// purpose.
			j("internal/ingest"): {"store.go", "epoch.go"},
			// Standing-query evaluation must be a pure fold over the epoch
			// sequence — same publishes in, same edges out — so predicate
			// logic and the dirty-set filter are deterministic; the registry
			// and subscription files around them stamp wall-clock publish
			// times and measure evaluation latency on purpose.
			j("internal/live"): {"predicate.go", "eval.go"},
			// The simulator's fleets, oracle, chaos schedules and verdict
			// hashing must replay bit-for-bit from the seed; the harness
			// loop (run.go) paces and times against the wall clock on
			// purpose.
			j("internal/sim"): {"sim.go", "fleet.go", "oracle.go", "chaos.go", "verdict.go", "invariant.go"},
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
	cfg.FloatEqPkgs = append(cfg.FloatEqPkgs, fix("floateq"))
	cfg.FloatEqAllow[fix("floateq")+"#allowed"] = true
	cfg.FloatEqAllow[fix("floateq")+"#key.Cmp"] = true
	cfg.ErrDropPkgs = append(cfg.ErrDropPkgs, fix("errdrop"), fix("suppress"))
	cfg.DetPaths[fix("detpath")] = nil
	cfg.IndexOnlyPkgs = append(cfg.IndexOnlyPkgs, fix("indexonly"))
	cfg.IndexOnlyDataPkgs = append(cfg.IndexOnlyDataPkgs, fix("indexonly"))
	// molint's own CLI and library are part of the enforced surface:
	// cmd/molint deliberately drops terminal-write errors behind
	// suppressions, and both packages are det-path clean — keeping them
	// in scope means those suppressions stay load-bearing rather than
	// rotting into stale ones.
	cfg.ErrDropPkgs = append(cfg.ErrDropPkgs, j("cmd/molint"))
	cfg.DetPaths[j("internal/lint")] = nil
	cfg.DetPaths[j("cmd/molint")] = nil
	return cfg
}

// Checks returns the full analyzer suite over cfg.
func Checks(cfg *Config) []Check {
	return []Check{
		floatEq{cfg},
		ctxLoop{cfg},
		errDrop{cfg},
		detPath{cfg},
		indexOnly{cfg},
		guardedBy{},
		goroutineExit{},
	}
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

func fileBase(fset *token.FileSet, f *ast.File) string {
	return filepath.Base(fset.Position(f.Pos()).Filename)
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

// isErrorType reports whether t is the predeclared error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
