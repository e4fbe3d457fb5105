// Command molint runs the repository's static-analysis suite: eleven
// checks that enforce the paper's representation invariants, the
// repo's determinism and cancellation conventions, and the moguard
// concurrency discipline — including the interprocedural lock-order,
// publish-immutable, and alias-retain checks built on the shared call
// graph (see DESIGN.md §10 for the catalog). It uses only the standard
// library — packages are typechecked from source — so go.mod gains no
// dependencies.
//
// Usage:
//
//	molint [-tags=t1,t2] [-checks=id1,id2] [-format=text|json|github|sarif]
//	       [-summary] [-suggest] [-stale-suppressions] [-timings] [patterns...]
//
// Patterns default to ./... relative to the module root. Without
// -tags, every package is analyzed in its default build configuration
// and packages with tag-gated files are re-analyzed under faultinject
// and debugcheck, so every build variant is covered by the same run.
// -format=json emits one JSON document (findings + per-check summary);
// -format=github emits GitHub Actions ::error workflow commands that
// become inline PR annotations; -format=sarif emits a SARIF 2.1.0
// document for github/codeql-action/upload-sarif; -summary appends the
// per-check finding/suppression table to the text output; -suggest
// prints the ready-to-paste annotation under findings that carry one;
// -stale-suppressions reports molint:ignore directives that no longer
// suppress anything; -timings adds per-check wall time to -summary and
// the JSON summary (off by default so JSON output stays byte-stable
// across runs). Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"movingdb/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// emit writes a diagnostic line; molint's output is best-effort by
// design, its contract with CI is the exit code.
func emit(w io.Writer, format string, args ...any) {
	//molint:ignore err-drop terminal write failures cannot be reported anywhere better
	fmt.Fprintf(w, format, args...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("molint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tagsFlag := fs.String("tags", "", "comma-separated build tags; default analyzes the default and faultinject variants")
	checksFlag := fs.String("checks", "", "comma-separated check IDs to run (default: all)")
	formatFlag := fs.String("format", "text", "output format: text, json, github, or sarif")
	summaryFlag := fs.Bool("summary", false, "append the per-check finding/suppression table (text format)")
	suggestFlag := fs.Bool("suggest", false, "print the ready-to-paste annotation under findings that carry one (text format)")
	staleFlag := fs.Bool("stale-suppressions", false, "report molint:ignore directives that no longer suppress anything")
	timingsFlag := fs.Bool("timings", false, "add per-check wall time to -summary and the JSON summary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *formatFlag {
	case "text", "json", "github", "sarif":
	default:
		emit(stderr, "molint: unknown format %q (want text, json, github, or sarif)\n", *formatFlag)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		emit(stderr, "molint: %v\n", err)
		return 2
	}

	variants := [][]string{nil, {"faultinject"}, {"debugcheck"}}
	if *tagsFlag != "" {
		variants = [][]string{strings.Split(*tagsFlag, ",")}
	}

	var pkgs []*lint.Package
	var module string
	for vi, tags := range variants {
		loader, err := lint.NewLoader(root, tags)
		if err != nil {
			emit(stderr, "molint: %v\n", err)
			return 2
		}
		module = loader.Module
		dirs, err := lint.ExpandPatterns(root, patterns)
		if err != nil {
			emit(stderr, "molint: %v\n", err)
			return 2
		}
		for _, dir := range dirs {
			// Non-default variants only change packages that gate
			// files on one of the variant's tags; skip the rest.
			if vi > 0 && !lint.DirUsesTags(dir, tags) {
				continue
			}
			ps, err := loader.LoadDir(dir)
			if err != nil {
				emit(stderr, "molint: %v\n", err)
				return 2
			}
			pkgs = append(pkgs, ps...)
		}
	}

	checks := lint.Checks(lint.DefaultConfig(module))
	if *checksFlag != "" {
		enabled := map[string]bool{}
		for _, id := range strings.Split(*checksFlag, ",") {
			enabled[strings.TrimSpace(id)] = true
		}
		var kept []lint.Check
		for _, c := range checks {
			if enabled[c.ID()] {
				kept = append(kept, c)
				delete(enabled, c.ID())
			}
		}
		for id := range enabled {
			emit(stderr, "molint: unknown check %q\n", id)
			return 2
		}
		checks = kept
	}

	opts := lint.Options{StaleSuppressions: *staleFlag}
	if *timingsFlag {
		//molint:ignore det-path wall-clock timing is diagnostic output, gated behind -timings
		opts.Clock = time.Now
	}
	res := lint.RunOpts(pkgs, checks, opts)
	report := lint.NewReport(root, res, len(pkgs))
	if *timingsFlag {
		report = report.WithTimings(res.Timings)
	}
	switch *formatFlag {
	case "json":
		if err := report.WriteJSON(stdout); err != nil {
			emit(stderr, "molint: %v\n", err)
			return 2
		}
	case "github":
		if err := report.WriteGitHub(stdout); err != nil {
			emit(stderr, "molint: %v\n", err)
			return 2
		}
	case "sarif":
		if err := report.WriteSARIF(stdout); err != nil {
			emit(stderr, "molint: %v\n", err)
			return 2
		}
	default:
		for _, f := range res.Findings {
			emit(stdout, "%s\n", rel(root, f))
			if *suggestFlag && f.Suggestion != "" {
				emit(stdout, "\tsuggest: %s\n", f.Suggestion)
			}
		}
		if *summaryFlag {
			//molint:ignore err-drop terminal write failures cannot be reported anywhere better
			_ = report.WriteSummaryTable(stdout)
		}
		emit(stdout, "molint: %d finding(s), %d suppressed, %d package(s)\n",
			len(res.Findings), res.Suppressed, len(pkgs))
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}

// rel renders a finding with its path relative to the module root so
// output is stable across checkouts.
func rel(root string, f lint.Finding) string {
	s := f.String()
	if strings.HasPrefix(s, root+string(os.PathSeparator)) {
		return s[len(root)+1:]
	}
	return s
}
