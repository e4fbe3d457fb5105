// Package lint holds the two paper rules that no runtime test can see
// broken: ordered pointer-free arrays with index-only references
// (Section 4, rule index-only) and epsilon-aware degeneracy handling in
// the unit kernels (Section 5, rule float-eq). DESIGN.md §10 records the
// mutation sweep that kept them. They run as an ordinary test,
// TestPaperRules, over packages that go/build selects and go/types
// checks from source, so go.mod stays dependency-free.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
)

// module is the module path in go.mod.
const module = "movingdb"

// floatEqPkgs are the Section 5 kernel packages, where raw float ==/!=
// is banned.
var floatEqPkgs = []string{"internal/geom", "internal/spatial", "internal/units", "internal/moving"}

// floatEqAllow lists functions whose bodies may compare floats exactly,
// keyed "<pkgpath>#<Recv.>Name".
var floatEqAllow = map[string]bool{
	// The Section 3.2.2 total orders on points, segments, and
	// halfsegments are defined over exact coordinates: two values are
	// the same representation iff their floats are bit-equal, so these
	// comparisons are the specification.
	"movingdb/internal/geom#Point.Less":      true,
	"movingdb/internal/geom#Point.Cmp":       true,
	"movingdb/internal/geom#Segment.Cmp":     true,
	"movingdb/internal/geom#HalfSegment.Cmp": true,
	// EqualFunc is unit-function identity for the minimality constraint
	// of Section 3.2.4: adjacent units merge only when their
	// representations are identical, which must be exact or merging
	// would corrupt the unique representation.
	"movingdb/internal/units#Const.EqualFunc":  true,
	"movingdb/internal/units#UPoint.EqualFunc": true,
	"movingdb/internal/units#UReal.EqualFunc":  true,
	"movingdb/internal/units#MSeg.EqualFunc":   true,
}

// indexOnlyPkgs are the packages whose structs must reference database
// arrays by index, never by stored pointer (Section 4).
var indexOnlyPkgs = []string{"internal/storage", "internal/index"}

// dataPkgs are the packages whose types are database array elements
// for index-only.
var dataPkgs = map[string]bool{
	"movingdb/internal/geom": true, "movingdb/internal/spatial": true,
	"movingdb/internal/units": true, "movingdb/internal/moving": true,
	"movingdb/internal/temporal": true, "movingdb/internal/mapping": true,
	"movingdb/internal/base": true,
}

// finding is one rule violation, or one malformed or stale directive.
type finding struct {
	Pos     token.Position
	Check   string // "float-eq", "index-only" or "suppress"
	Message string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Message)
}

// pkg is one type-checked package: its non-test files under one
// build context.
type pkg struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Types *types.Package
}

// loader is the type checker's importer for one build context: module
// paths map to directories under root, everything else goes to the
// standard library's source importer.
type loader struct {
	ctx  build.Context
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*pkg
}

func newLoader(root string, tags ...string) *loader {
	// The source importer reads build.Default; with cgo on it would
	// preprocess the cgo files of net and friends.
	build.Default.CgoEnabled = false
	ctx := build.Default
	ctx.BuildTags = tags
	fset := token.NewFileSet()
	return &loader{ctx, root, fset, importer.ForCompiler(fset, "source", nil), map[string]*pkg{}}
}

func (l *loader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, module+"/")
	if !ok {
		return l.std.Import(path)
	}
	p, err := l.load(rel)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

// load parses and type-checks the package in root/rel, once. ImportDir
// selects its files: build constraints hold, and no _test.go file is
// among them.
func (l *loader) load(rel string) (*pkg, error) {
	path := module + "/" + filepath.ToSlash(rel)
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := l.ctx.ImportDir(filepath.Join(l.root, rel), 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{Path: path, Fset: l.fset, Info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(l.root, rel, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
	}
	conf := types.Config{Importer: l}
	if p.Types, err = conf.Check(path, l.fset, p.Files, p.Info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// tree runs each rule over its packages in the default and the
// debugcheck build of the module at root, then audits every
// //molint:ignore directive in the tree. It returns the findings left,
// paths relative to root, and the number of suppressed sites.
func tree(root string) ([]finding, int, error) {
	var raw []finding
	for _, l := range []*loader{newLoader(root), newLoader(root, "debugcheck")} {
		for _, rel := range append(slices.Clone(floatEqPkgs), indexOnlyPkgs...) {
			p, err := l.load(rel)
			if err != nil {
				return nil, 0, err
			}
			if slices.Contains(floatEqPkgs, rel) {
				raw = append(raw, floatEq(p, floatEqAllow)...)
			} else {
				raw = append(raw, indexOnly(p, dataPkgs)...)
			}
		}
	}
	var ds directives
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(name string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && name != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(name, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err == nil {
			ds.add(fset, f)
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	findings, suppressed := ds.apply(raw)
	for i := range findings {
		findings[i].Pos.Filename = strings.TrimPrefix(findings[i].Pos.Filename, root+string(filepath.Separator))
	}
	return findings, suppressed, nil
}

// site is one line of one file, for one check.
type site struct {
	file  string
	line  int
	check string
}

// directives collects //molint:ignore <check> <reason> comments. A
// malformed one (unknown check, no reason) is a finding, so a
// suppression can never silently widen.
type directives struct {
	ok  []site
	bad []finding
}

func (ds *directives) add(fset *token.FileSet, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, found := strings.CutPrefix(c.Text, "//molint:ignore")
			if !found {
				continue
			}
			pos := fset.Position(c.Pos())
			check, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
			switch {
			case check != "float-eq" && check != "index-only":
				ds.bad = append(ds.bad, finding{pos, "suppress", fmt.Sprintf("molint:ignore names unknown check %q", check)})
			case strings.TrimSpace(reason) == "":
				ds.bad = append(ds.bad, finding{pos, "suppress", fmt.Sprintf("molint:ignore %s is missing a reason", check)})
			default:
				ds.ok = append(ds.ok, site{pos.Filename, pos.Line, check})
			}
		}
	}
}

// apply drops each raw finding on the line of a directive for its check
// or the line below, and reports each directive that drops nothing as
// stale. It returns the sorted, distinct findings left, malformed
// directives included, and the number of suppressed sites.
func (ds *directives) apply(raw []finding) ([]finding, int) {
	used, suppressed := map[site]bool{}, map[site]bool{}
	out := slices.Clone(ds.bad)
	for _, f := range raw {
		i := slices.IndexFunc(ds.ok, func(d site) bool {
			return d.check == f.Check && d.file == f.Pos.Filename && (f.Pos.Line == d.line || f.Pos.Line == d.line+1)
		})
		if i < 0 {
			out = append(out, f)
			continue
		}
		used[ds.ok[i]] = true
		suppressed[site{f.Pos.Filename, f.Pos.Line, f.Check}] = true
	}
	for _, d := range ds.ok {
		if !used[d] {
			out = append(out, finding{token.Position{Filename: d.file, Line: d.line}, "suppress",
				fmt.Sprintf("molint:ignore %s suppresses nothing (stale — delete it or fix the drift)", d.check)})
		}
	}
	slices.SortFunc(out, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), a.Pos.Line-b.Pos.Line, a.Pos.Column-b.Pos.Column,
			strings.Compare(a.String(), b.String()))
	})
	return slices.Compact(out), len(suppressed)
}
