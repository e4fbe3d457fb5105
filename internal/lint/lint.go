// Package lint implements molint, the repository's static-analysis
// suite. It keeps only the conventions tests can miss: ordered
// pointer-free arrays with index-only references (Section 4, check
// index-only) and epsilon-aware degeneracy handling in the unit kernels
// (Section 5, check float-eq). Planted violations of both pass every
// test; DESIGN.md §10 records the mutation sweep that retired the checks
// whose violations the tests do catch. The suite runs over typechecked
// packages using only the standard library (go/parser, go/ast, go/types
// with the source importer), so go.mod stays dependency-free.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Check   string // check ID, e.g. "float-eq"
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Check is one analyzer. Run inspects a typechecked package and reports
// findings through pass.Report; scope decisions (which packages and
// files a check covers) live in the check itself, driven by Config.
type Check interface {
	ID() string
	Run(pass *Pass)
}

// Pass is one typechecked package variant handed to one check.
// Suppression comments are handled by the runner, not by checks:
// Report drops findings covered by a molint:ignore directive, counts
// them in the suppressed tally and marks the directive used (so the
// stale audit can tell which ones still earn their place).
type Pass struct {
	*Package
	check      string
	findings   *[]Finding
	suppressed map[suppKey]bool
	used       map[directive]bool
	directives []directive
}

// suppKey identifies one suppressed finding site; the same site seen in
// several package variants counts once.
type suppKey struct {
	file  string
	line  int
	check string
}

// Report files a finding at pos unless a suppression directive covers
// it.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, d := range p.directives {
		if d.covers(p.check, position) {
			p.suppressed[suppKey{position.Filename, position.Line, p.check}] = true
			p.used[d] = true
			return
		}
	}
	*p.findings = append(*p.findings, Finding{Pos: position, Check: p.check, Message: fmt.Sprintf(format, args...)})
}

// directive is one well-formed //molint:ignore comment (known check,
// reason present); it is comparable, and the same comment seen in
// several package variants is one directive.
type directive struct {
	file  string
	line  int    // line the comment sits on
	col   int    // column, for reporting the directive itself (stale)
	check string // check ID being suppressed
}

// covers reports whether the directive suppresses a finding of the
// given check at position: same file, matching check ID, and the
// finding sits on the directive's own line or the line directly below
// it (the "comment above the statement" idiom).
func (d directive) covers(check string, pos token.Position) bool {
	return d.check == check && d.file == pos.Filename && (pos.Line == d.line || pos.Line == d.line+1)
}

const ignorePrefix = "//molint:ignore"

// parseDirectives extracts molint:ignore directives from a file's
// comments. Malformed directives (missing check ID or missing reason)
// are returned as findings so a suppression can never silently widen.
func parseDirectives(fset *token.FileSet, file *ast.File, knownChecks map[string]bool) (ds []directive, malformed []Finding) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			check, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			if check == "" {
				malformed = append(malformed, Finding{Pos: pos, Check: "suppress",
					Message: "molint:ignore needs a check ID and a reason"})
				continue
			}
			if !knownChecks[check] {
				malformed = append(malformed, Finding{Pos: pos, Check: "suppress",
					Message: fmt.Sprintf("molint:ignore names unknown check %q", check)})
				continue
			}
			if reason == "" {
				malformed = append(malformed, Finding{Pos: pos, Check: "suppress",
					Message: fmt.Sprintf("molint:ignore %s is missing a reason", check)})
				continue
			}
			ds = append(ds, directive{file: pos.Filename, line: pos.Line, col: pos.Column, check: check})
		}
	}
	return ds, malformed
}

// Result is the outcome of running checks over a set of packages.
type Result struct {
	Findings   []Finding
	Suppressed int
	// Checks tallies findings and suppressions per check ID, for the
	// summary table. Every check that ran has an entry, zero or not, so
	// a silent no-op check is visible.
	Checks map[string]CheckTally
}

// CheckTally is one check's row in the summary.
type CheckTally struct {
	Findings   int
	Suppressed int
}

// Run executes every check over every package and returns deduplicated,
// position-sorted findings. Packages may contain the same file more
// than once (tag-variant runs); duplicate findings collapse. Every
// well-formed molint:ignore directive that suppressed nothing is itself
// a "suppress" finding, so a suppression cannot outlive the code it
// excused. A directive that names a check outside checks is reported
// as naming an unknown check; molint passes every check.
func Run(pkgs []*Package, checks []Check) Result {
	known := map[string]bool{"suppress": true}
	res := Result{Checks: map[string]CheckTally{"suppress": {}}}
	for _, c := range checks {
		known[c.ID()] = true
		res.Checks[c.ID()] = CheckTally{}
	}
	suppressed := map[suppKey]bool{}
	used := map[directive]bool{}
	allDirectives := map[directive]bool{}
	seenDirectiveFile := map[string]bool{}
	for _, pkg := range pkgs {
		var ds []directive
		for _, f := range pkg.Files {
			fds, malformed := parseDirectives(pkg.Fset, f, known)
			ds = append(ds, fds...)
			for _, d := range fds {
				allDirectives[d] = true
			}
			name := pkg.Fset.Position(f.Pos()).Filename
			if !seenDirectiveFile[name] {
				seenDirectiveFile[name] = true
				res.Findings = append(res.Findings, malformed...)
			}
		}
		for _, c := range checks {
			c.Run(&Pass{Package: pkg, check: c.ID(), findings: &res.Findings,
				suppressed: suppressed, used: used, directives: ds})
		}
	}
	for d := range allDirectives {
		if used[d] {
			continue
		}
		res.Findings = append(res.Findings, Finding{
			Pos:     token.Position{Filename: d.file, Line: d.line, Column: d.col},
			Check:   "suppress",
			Message: fmt.Sprintf("molint:ignore %s suppresses nothing (stale — delete it or fix the drift)", d.check),
		})
	}
	res.Findings = dedupe(res.Findings)
	res.Suppressed = len(suppressed)
	for _, f := range res.Findings {
		t := res.Checks[f.Check]
		t.Findings++
		res.Checks[f.Check] = t
	}
	for k := range suppressed {
		t := res.Checks[k.check]
		t.Suppressed++
		res.Checks[k.check] = t
	}
	return res
}

func dedupe(fs []Finding) []Finding {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}
