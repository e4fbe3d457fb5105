//go:build !race

// Type-checking from source is single-threaded and about six times
// slower under the race detector, which has nothing to find in it.

package lint

import (
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// root is the module root, seen from this package's directory.
const root = "../.."

// TestPaperRules is the gate: float-eq and index-only over their
// packages, in every build variant, and the audit of every
// //molint:ignore directive in the tree. It fails with one line per
// finding.
func TestPaperRules(t *testing.T) {
	findings, suppressed, err := tree(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
	t.Logf("%d finding(s), %d suppressed", len(findings), suppressed)
}

// loadFixture type-checks one fixture package under testdata/src.
func loadFixture(t *testing.T, name string) *pkg {
	t.Helper()
	p, err := newLoader(root).load("internal/lint/testdata/src/" + name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return p
}

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// matchWants asserts a one-to-one correspondence between findings and
// the fixture's trailing `// want` comments: every finding must match
// the want regex on its line (against "[check] message"), and every
// want must be met.
func matchWants(t *testing.T, p *pkg, findings []finding) {
	t.Helper()
	wants := map[int]*regexp.Regexp{}
	for _, f := range p.Files {
		data, err := os.ReadFile(p.Fset.Position(f.Pos()).Filename)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants[i+1] = regexp.MustCompile(m[1])
			}
		}
	}
	for _, f := range findings {
		if w := wants[f.Pos.Line]; w == nil || !w.MatchString("["+f.Check+"] "+f.Message) {
			t.Errorf("unexpected finding: %s", f)
		}
		delete(wants, f.Pos.Line)
	}
	for line, w := range wants {
		t.Errorf("line %d: expected a finding matching %q, got none", line, w)
	}
}

// TestFixtures runs each rule against its golden fixture. The fixture
// packages play the part of the scoped packages: floateq has its own
// allowlist, and indexonly is a data-model package beside the real
// ones.
func TestFixtures(t *testing.T) {
	const fixture = module + "/internal/lint/testdata/src/"
	t.Run("floateq", func(t *testing.T) {
		p := loadFixture(t, "floateq")
		matchWants(t, p, floatEq(p, map[string]bool{fixture + "floateq#allowed": true, fixture + "floateq#key.Cmp": true}))
	})
	t.Run("indexonly", func(t *testing.T) {
		p := loadFixture(t, "indexonly")
		data := maps.Clone(dataPkgs)
		data[fixture+"indexonly"] = true
		matchWants(t, p, indexOnly(p, data))
	})
}

// TestSuppressions exercises the directive audit on the suppress
// fixture: a respected directive removes its finding and counts as
// suppressed, a directive without a reason suppresses nothing and is
// itself reported, an unknown check ID is reported, and a well-formed
// directive that suppresses nothing is reported as stale. The
// expectations are listed here because a want comment cannot share a
// line with the directive it describes.
func TestSuppressions(t *testing.T) {
	p := loadFixture(t, "suppress")
	var ds directives
	for _, f := range p.Files {
		ds.add(p.Fset, f)
	}
	findings, suppressed := ds.apply(floatEq(p, nil))
	if suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (the respected directive)", suppressed)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%d: [%s] %s", f.Pos.Line, f.Check, f.Message))
	}
	want := []string{
		"14: [suppress] molint:ignore float-eq is missing a reason",
		"15: [float-eq] raw float64 == comparison; use geom.ApproxEq/ApproxZero or suppress with a reason",
		`19: [suppress] molint:ignore names unknown check "no-such-check"`,
		"24: [suppress] molint:ignore float-eq suppresses nothing (stale — delete it or fix the drift)",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// planted is a file added to a copy of the tree: one raw float
// comparison in a Section 5 package and one directive that suppresses
// nothing.
const planted = `package units

func planted(a, b float64) bool {
	return a == b
}

//molint:ignore float-eq nothing below compares floats
func plantedStale() {}
`

// plantedTree copies go.mod and the non-test Go files under internal/
// (testdata aside) into a temporary module, adds planted to units, and
// runs the whole gate over it.
func plantedTree(t *testing.T) []string {
	t.Helper()
	tmp := t.TempDir()
	copyFile := func(rel string) error {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(tmp, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(tmp, rel), data, 0o644)
	}
	if err := copyFile("go.mod"); err != nil {
		t.Fatal(err)
	}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(name string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go"):
			return nil
		}
		rel, err := filepath.Rel(root, name)
		if err != nil {
			return err
		}
		return copyFile(rel)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "internal", "units", "planted.go"), []byte(planted), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, _, err := tree(tmp)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, f := range findings {
		lines = append(lines, f.String())
	}
	return lines
}

// TestGateFailsOnViolation: a raw float comparison planted in a kernel
// package fails the gate with one root-relative line, although both
// builds see the file.
func TestGateFailsOnViolation(t *testing.T) {
	want := "internal/units/planted.go:4: [float-eq] raw float64 == comparison; use geom.ApproxEq/ApproxZero or suppress with a reason"
	lines := plantedTree(t)
	if n := slices.Index(lines, want); n < 0 || slices.Index(lines[n+1:], want) >= 0 {
		t.Errorf("want exactly one %q, got:\n%s", want, strings.Join(lines, "\n"))
	}
}

// TestStaleSuppressions: the gate's directive audit reports a
// well-formed directive that suppresses nothing.
func TestStaleSuppressions(t *testing.T) {
	want := "internal/units/planted.go:7: [suppress] molint:ignore float-eq suppresses nothing (stale — delete it or fix the drift)"
	if lines := plantedTree(t); !slices.Contains(lines, want) {
		t.Errorf("stale directive not reported; want %q, got:\n%s", want, strings.Join(lines, "\n"))
	}
}
