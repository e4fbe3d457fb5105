// Package lint implements molint, the repository's static-analysis
// suite. The paper's data structures are correct only under conventions
// no compiler checks — unique-representation constraints on region and
// range values (Section 3.2.2), ordered pointer-free arrays with
// index-only references (Section 4), epsilon-aware degeneracy handling
// in the unit kernels (Section 5) — and the serving/ingestion layers
// added conventions of their own: Ctx kernels must poll cancellation,
// WAL and recovery paths must never drop errors, and compaction and
// fault injection must stay seeded-deterministic. Each convention is a
// Check; the suite runs over typechecked packages using only the
// standard library (go/parser, go/ast, go/types with the source
// importer), so go.mod stays dependency-free.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Check   string // check ID, e.g. "float-eq"
	Message string
	// Suggestion is an optional ready-to-paste fix (the -suggest mode
	// prints it; the JSON report carries it when present).
	Suggestion string
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

// ProgramCheck is an analyzer that needs the whole-program call graph
// rather than one package at a time (lock-order, publish-immutable,
// alias-retain). Its Run is a no-op; the runner builds the Program once
// after the per-package checks and invokes RunProgram with a pass whose
// directives span every analyzed package.
type ProgramCheck interface {
	Check
	RunProgram(pass *ProgramPass)
}

// reporter is the finding sink shared by per-package and program
// passes: it applies suppression directives, tallies suppressed sites,
// and records which directives actually fired (for -stale-suppressions).
type reporter struct {
	check      string
	findings   *[]Finding
	suppressed map[suppKey]bool
	used       map[suppKey]bool
	directives []directive
}

// ReportAt files a finding at an already-resolved position unless a
// suppression directive covers it. Program checks report through this
// form because their facts span loader variants with distinct FileSets.
func (r *reporter) ReportAt(position token.Position, format string, args ...any) {
	r.reportAt(position, "", format, args...)
}

// ReportSuggestAt is ReportAt carrying a ready-to-paste fix.
func (r *reporter) ReportSuggestAt(position token.Position, suggestion, format string, args ...any) {
	r.reportAt(position, suggestion, format, args...)
}

func (r *reporter) reportAt(position token.Position, suggestion, format string, args ...any) {
	for _, d := range r.directives {
		if d.covers(r.check, position) {
			r.suppressed[suppKey{position.Filename, position.Line, r.check}] = true
			if r.used != nil {
				r.used[suppKey{d.file, d.line, d.check}] = true
			}
			return
		}
	}
	*r.findings = append(*r.findings, Finding{Pos: position, Check: r.check,
		Message: fmt.Sprintf(format, args...), Suggestion: suggestion})
}

// Pass is one typechecked package variant handed to every check.
// Suppression comments are handled by the runner, not by checks:
// Report drops findings covered by a molint:ignore directive and
// records them in the suppressed tally instead.
type Pass struct {
	*Package
	reporter
}

// ProgramPass is the whole-program counterpart handed to ProgramChecks.
type ProgramPass struct {
	Prog *Program
	// Stale mirrors Options.StaleSuppressions for checks that manage
	// their own directive namespace (alloc-hot's allocok verb): the
	// runner's stale audit only covers molint:ignore.
	Stale bool
	reporter
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
	p.ReportAt(p.Fset.Position(pos), format, args...)
}

// ReportSuggest is Report carrying a ready-to-paste fix.
func (p *Pass) ReportSuggest(pos token.Pos, suggestion, format string, args ...any) {
	p.ReportSuggestAt(p.Fset.Position(pos), suggestion, format, args...)
}

// directive is one parsed //molint:ignore comment.
type directive struct {
	file   string
	line   int    // line the comment sits on
	col    int    // column, for reporting the directive itself (stale)
	check  string // check ID being suppressed, or "*" (never written, reserved)
	reason string // empty means malformed (missing reason)
}

// covers reports whether the directive suppresses a finding of the
// given check at position: same file, matching check ID, and the
// finding sits on the directive's own line or the line directly below
// it (the "comment above the statement" idiom).
func (d directive) covers(check string, pos token.Position) bool {
	if d.reason == "" || d.check != check || d.file != pos.Filename {
		return false
	}
	return pos.Line == d.line || pos.Line == d.line+1
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
			if knownChecks != nil && !knownChecks[check] {
				malformed = append(malformed, Finding{Pos: pos, Check: "suppress",
					Message: fmt.Sprintf("molint:ignore names unknown check %q", check)})
				continue
			}
			if reason == "" {
				malformed = append(malformed, Finding{Pos: pos, Check: "suppress",
					Message: fmt.Sprintf("molint:ignore %s is missing a reason", check)})
				continue
			}
			ds = append(ds, directive{file: pos.Filename, line: pos.Line, col: pos.Column, check: check, reason: reason})
		}
	}
	return ds, malformed
}

// Result is the outcome of running checks over a set of packages.
type Result struct {
	Findings   []Finding
	Suppressed int
	// Checks tallies findings and suppressions per check ID, for the
	// summary table and the JSON report. Every check that ran has an
	// entry, zero or not, so a silent no-op check is visible.
	Checks map[string]CheckTally
	// Timings is per-check wall time, populated only when Options.Clock
	// was supplied (it is injected so package lint itself stays det-path
	// clean). The "callgraph" entry is the one-time Program build shared
	// by every ProgramCheck.
	Timings map[string]time.Duration
}

// CheckTally is one check's row in the summary.
type CheckTally struct {
	Findings   int `json:"findings"`
	Suppressed int `json:"suppressed"`
}

// Options tunes a Run beyond the check list.
type Options struct {
	// StaleSuppressions reports every molint:ignore directive that
	// suppressed nothing this run as a "suppress" finding. Only
	// directives naming a check enabled this run are audited, so a
	// -checks subset does not flag the rest of the tree's suppressions.
	StaleSuppressions bool
	// Clock samples wall time around each check for Result.Timings. Nil
	// disables timing (and keeps Run fully deterministic).
	Clock func() time.Time
}

// Run executes every check over every package and returns deduplicated,
// position-sorted findings. Packages may contain the same file more
// than once (tag-variant runs); duplicate findings collapse.
func Run(pkgs []*Package, checks []Check) Result {
	return RunOpts(pkgs, checks, Options{})
}

// RunOpts is Run with Options.
func RunOpts(pkgs []*Package, checks []Check, opts Options) Result {
	// A directive may name any check in the registry, not just the ones
	// enabled this run — otherwise molint -checks=<subset> would flag
	// every suppression belonging to a disabled check as unknown.
	known := map[string]bool{"suppress": true}
	for _, c := range Checks(&Config{}) {
		known[c.ID()] = true
	}
	for _, c := range checks {
		known[c.ID()] = true
	}
	res := Result{Checks: map[string]CheckTally{"suppress": {}}, Timings: map[string]time.Duration{}}
	for _, c := range checks {
		res.Checks[c.ID()] = CheckTally{}
	}
	timed := func(id string, f func()) {
		if opts.Clock == nil {
			f()
			return
		}
		start := opts.Clock()
		f()
		res.Timings[id] += opts.Clock().Sub(start)
	}
	suppressed := map[suppKey]bool{}
	used := map[suppKey]bool{}
	allDirectives := map[suppKey]directive{}
	seenDirectiveFile := map[string]bool{}
	for _, pkg := range pkgs {
		var ds []directive
		for _, f := range pkg.Files {
			fds, malformed := parseDirectives(pkg.Fset, f, known)
			ds = append(ds, fds...)
			for _, d := range fds {
				allDirectives[suppKey{d.file, d.line, d.check}] = d
			}
			name := pkg.Fset.Position(f.Pos()).Filename
			if !seenDirectiveFile[name] {
				seenDirectiveFile[name] = true
				res.Findings = append(res.Findings, malformed...)
			}
		}
		for _, c := range checks {
			if _, isProg := c.(ProgramCheck); isProg {
				continue
			}
			pass := &Pass{Package: pkg, reporter: reporter{check: c.ID(), findings: &res.Findings,
				suppressed: suppressed, used: used, directives: ds}}
			timed(c.ID(), func() { c.Run(pass) })
		}
	}
	var progChecks []ProgramCheck
	for _, c := range checks {
		if pc, ok := c.(ProgramCheck); ok {
			progChecks = append(progChecks, pc)
		}
	}
	if len(progChecks) > 0 {
		var prog *Program
		timed("callgraph", func() { prog = BuildProgram(pkgs) })
		// Program findings can land in any analyzed file, so the
		// program pass sees every directive, in deterministic order.
		globalDs := make([]directive, 0, len(allDirectives))
		for _, d := range allDirectives {
			globalDs = append(globalDs, d)
		}
		sort.Slice(globalDs, func(i, j int) bool {
			a, b := globalDs[i], globalDs[j]
			if a.file != b.file {
				return a.file < b.file
			}
			if a.line != b.line {
				return a.line < b.line
			}
			return a.check < b.check
		})
		for _, pc := range progChecks {
			pass := &ProgramPass{Prog: prog, Stale: opts.StaleSuppressions,
				reporter: reporter{check: pc.ID(), findings: &res.Findings,
					suppressed: suppressed, used: used, directives: globalDs}}
			timed(pc.ID(), func() { pc.RunProgram(pass) })
		}
	}
	if opts.StaleSuppressions {
		enabled := map[string]bool{}
		for _, c := range checks {
			enabled[c.ID()] = true
		}
		for key, d := range allDirectives {
			if d.reason == "" || !enabled[d.check] || used[key] {
				continue
			}
			res.Findings = append(res.Findings, Finding{
				Pos:     token.Position{Filename: d.file, Line: d.line, Column: d.col},
				Check:   "suppress",
				Message: fmt.Sprintf("molint:ignore %s suppresses nothing (stale — delete it or fix the drift)", d.check),
			})
		}
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
