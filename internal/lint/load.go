package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one typechecked package variant (base + in-package test
// files, or an external _test package) ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Path  string // import path, e.g. movingdb/internal/geom
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and typechecks module packages using only the standard
// library: module-internal imports resolve against the module tree,
// everything else (the standard library) through the source importer.
type Loader struct {
	Fset    *token.FileSet
	Module  string // module path from go.mod
	Root    string // module root directory
	Tags    []string
	std     types.Importer
	base    map[string]*types.Package // import-facing variants (no test files)
	baseErr map[string]error
}

// NewLoader returns a loader for the module rooted at root. tags are
// additional build tags (e.g. "debugcheck") applied when selecting
// files.
func NewLoader(root string, tags []string) (*Loader, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	// The source importer consults go/build's default context; with cgo
	// enabled it would try to preprocess cgo files in net and friends.
	// Typechecking the pure-Go variants is all the analyzers need.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Module:  mod,
		Root:    root,
		Tags:    tags,
		std:     importer.ForCompiler(fset, "source", nil),
		base:    map[string]*types.Package{},
		baseErr: map[string]error{},
	}, nil
}

func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// Import resolves an import path for the typechecker: module packages
// from source (without test files), everything else via the standard
// library's source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.base[path]; ok {
		return pkg, nil
	}
	if err, ok := l.baseErr[path]; ok {
		return nil, err
	}
	if path != l.Module && !strings.HasPrefix(path, l.Module+"/") {
		return l.std.Import(path)
	}
	dir := l.dirOf(path)
	files, _, err := l.parseDir(dir, false)
	if err == nil && len(files) == 0 {
		err = fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	var pkg *types.Package
	if err == nil {
		pkg, _, err = l.typecheck(path, files)
	}
	if err != nil {
		l.baseErr[path] = err
		return nil, err
	}
	l.base[path] = pkg
	return pkg, nil
}

func (l *Loader) dirOf(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// PathOf maps a directory under the module root to its import path.
func (l *Loader) PathOf(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.Root)
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// LoadDir parses, filters, and typechecks the package in dir. It
// returns up to two analysis variants: the package itself including its
// in-package test files, and the external _test package when one
// exists.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	path, err := l.PathOf(dir)
	if err != nil {
		return nil, err
	}
	files, xtest, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	var out []*Package
	if len(files) > 0 {
		tpkg, info, err := l.typecheck(path, files)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &Package{Fset: l.Fset, Path: path, Files: files, Types: tpkg, Info: info})
	}
	if len(xtest) > 0 {
		tpkg, info, err := l.typecheck(path+"_test", xtest)
		if err != nil {
			return nil, fmt.Errorf("%s_test: %w", path, err)
		}
		out = append(out, &Package{Fset: l.Fset, Path: path + "_test", Files: xtest, Types: tpkg, Info: info})
	}
	return out, nil
}

// parseDir parses every buildable .go file in dir, splitting external
// test-package files from the rest. With includeTests false (the
// import-facing variant other packages see) test files are skipped
// entirely — in-package test files may import packages that import
// this one, which would otherwise look like an import cycle.
func (l *Loader) parseDir(dir string, includeTests bool) (files, xtest []*ast.File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		if !l.fileIncluded(f) {
			continue
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtest = append(xtest, f)
		} else {
			files = append(files, f)
		}
	}
	sortByPos := func(fs []*ast.File) {
		sort.Slice(fs, func(i, j int) bool {
			return l.Fset.Position(fs[i].Pos()).Filename < l.Fset.Position(fs[j].Pos()).Filename
		})
	}
	sortByPos(files)
	sortByPos(xtest)
	return files, xtest, nil
}

// fileIncluded evaluates the file's //go:build constraint (if any)
// against the loader's tag set plus the host GOOS/GOARCH.
func (l *Loader) fileIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return false
			}
			return expr.Eval(l.tagOK)
		}
	}
	return true
}

func (l *Loader) tagOK(tag string) bool {
	for _, t := range l.Tags {
		if t == tag {
			return true
		}
	}
	if tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" {
		return true
	}
	// Release tags: a go1.N tag is satisfied by every toolchain >= N;
	// the module's floor is far below the toolchain, so accept all.
	return strings.HasPrefix(tag, "go1.")
}

func (l *Loader) typecheck(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// ExpandPatterns resolves command-line patterns ("./...", "./internal/geom",
// "internal/...") into package directories under root, skipping
// testdata, vendor, and hidden directories on recursive walks.
func ExpandPatterns(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		fi, err := os.Stat(base)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
			return true
		}
	}
	return false
}

// DirUsesTags reports whether any Go file in dir carries a //go:build
// constraint that mentions one of the given tags, i.e. whether the
// package's file set can differ under that tag combination.
func DirUsesTags(dir string, tags []string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "package ") {
				break
			}
			if !constraint.IsGoBuild(line) {
				continue
			}
			for _, tag := range tags {
				if strings.Contains(line, tag) {
					return true
				}
			}
		}
	}
	return false
}

// FindModuleRoot walks upward from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		abs = parent
	}
}
