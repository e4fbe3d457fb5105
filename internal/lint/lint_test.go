package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// newTestLoader builds a loader rooted at the enclosing module.
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	l, err := NewLoader(root, nil)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	return l
}

// loadFixture typechecks one fixture package under testdata/src.
func loadFixture(t *testing.T, l *Loader, name string) *Package {
	t.Helper()
	pkgs, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d package variants, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// parseWants extracts the trailing `// want` comments from every file of
// the fixture package: line number -> expected-finding regexes.
func parseWants(t *testing.T, pkg *Package) map[int][]string {
	t.Helper()
	wants := map[int][]string{}
	seen := map[string]bool{}
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if seen[name] {
			continue
		}
		seen[name] = true
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				wants[i+1] = append(wants[i+1], m[1])
			}
		}
	}
	return wants
}

// matchFindings asserts a one-to-one correspondence between findings and
// want comments: every finding must match a want regex on its line
// (against "[check] message"), and every want must be consumed.
func matchFindings(t *testing.T, wants map[int][]string, res Result) {
	t.Helper()
	for _, f := range res.Findings {
		ws := wants[f.Pos.Line]
		matched := false
		for i, w := range ws {
			if regexp.MustCompile(w).MatchString(fmt.Sprintf("[%s] %s", f.Check, f.Message)) {
				wants[f.Pos.Line] = append(ws[:i], ws[i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			t.Errorf("line %d: expected a finding matching %q, got none", line, w)
		}
	}
}

// checkByID picks one analyzer out of the suite.
func checkByID(t *testing.T, cfg *Config, id string) Check {
	t.Helper()
	for _, c := range Checks(cfg) {
		if c.ID() == id {
			return c
		}
	}
	t.Fatalf("no check with ID %q", id)
	return nil
}

// TestFixtures runs each check against its golden fixture using the same
// DefaultConfig the molint command ships (the fixture packages are part
// of the default scope precisely so the CLI demo works).
func TestFixtures(t *testing.T) {
	l := newTestLoader(t)
	cfg := DefaultConfig(l.Module)
	cases := []struct {
		fixture string
		check   string
	}{
		{"floateq", "float-eq"},
		{"indexonly", "index-only"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			pkg := loadFixture(t, l, tc.fixture)
			res := Run([]*Package{pkg}, []Check{checkByID(t, cfg, tc.check)})
			matchFindings(t, parseWants(t, pkg), res)
			if len(res.Findings) == 0 {
				t.Fatalf("fixture %s produced no findings; the golden file is inert", tc.fixture)
			}
		})
	}
}

// TestSuppressions exercises the directive machinery on the suppress
// fixture: a respected directive removes its finding and counts in the
// suppressed tally, a directive without a reason suppresses nothing and
// is itself reported, an unknown check ID is reported, and a well-formed
// directive that suppresses nothing is reported as stale. The
// expectations are asserted programmatically because a want comment
// cannot share a line with the directive it describes.
func TestSuppressions(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "suppress")
	cfg := DefaultConfig(l.Module)
	res := Run([]*Package{pkg}, Checks(cfg))

	if res.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (the respected directive)", res.Suppressed)
	}
	want := []struct {
		line    int
		check   string
		message string // substring
	}{
		{14, "suppress", "missing a reason"},
		{15, "float-eq", "raw float64 == comparison"},
		{19, "suppress", "unknown check"},
		{24, "suppress", "molint:ignore float-eq suppresses nothing"},
	}
	if len(res.Findings) != len(want) {
		for _, f := range res.Findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want %d", len(res.Findings), len(want))
	}
	for i, w := range want {
		f := res.Findings[i]
		if f.Pos.Line != w.line || f.Check != w.check || !strings.Contains(f.Message, w.message) {
			t.Errorf("finding %d = %s; want line %d [%s] ...%s...", i, f, w.line, w.check, w.message)
		}
	}
}

// TestMolintSelfCheck turns every analyzer on the linter's own package
// and command with the scopes pointed at themselves. The tool must
// hold itself to the conventions it enforces.
func TestMolintSelfCheck(t *testing.T) {
	l := newTestLoader(t)
	dirs := []string{"internal/lint", "cmd/molint"}
	self := []string{l.Module + "/internal/lint", l.Module + "/cmd/molint"}
	cfg := &Config{
		FloatEqPkgs:  self,
		FloatEqAllow: map[string]bool{},
		// The linter does not import the data model, so its structs must
		// trivially hold no pointers into the paper's arrays.
		IndexOnlyPkgs:     self,
		IndexOnlyDataPkgs: DefaultConfig(l.Module).IndexOnlyDataPkgs,
	}
	var pkgs []*Package
	for _, rel := range dirs {
		got, err := l.LoadDir(filepath.Join(l.Root, rel))
		if err != nil {
			t.Fatalf("load %s: %v", rel, err)
		}
		pkgs = append(pkgs, got...)
	}
	res := Run(pkgs, Checks(cfg))
	for _, f := range res.Findings {
		t.Errorf("self-check: %s", f)
	}
}
