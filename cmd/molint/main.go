// Command molint runs the repository's static-analysis suite: two
// per-package checks that enforce paper invariants tests can miss,
// float-eq (Section 5's tolerant degeneracy handling) and index-only
// (Section 4's pointer-free arrays), plus the suppress audit of
// molint:ignore directives. DESIGN.md §10 has the
// catalog and the mutation sweep that decided which checks stay. It
// uses only the standard library — packages are typechecked from
// source — so go.mod gains no dependencies.
//
// Usage:
//
//	molint [-format=text|github] [patterns...]
//
// Patterns default to ./... relative to the module root. Every package
// is analyzed in its default build configuration, and packages with
// tag-gated files are re-analyzed under debugcheck, so every build
// variant is covered by the same run. Text output is one
// line per finding, the per-check finding/suppression table and a
// summary line; -format=github emits GitHub Actions ::error workflow
// commands that become inline PR annotations. A molint:ignore directive
// that no longer suppresses anything is itself a finding. Exit status:
// 0 clean, 1 findings, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"movingdb/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// emit writes a diagnostic line; molint's output is best-effort by
// design, its contract with CI is the exit code. A terminal write
// failure cannot be reported anywhere better, so its error is dropped.
func emit(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("molint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	formatFlag := fs.String("format", "text", "output format: text or github")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *formatFlag != "text" && *formatFlag != "github" {
		emit(stderr, "molint: unknown format %q (want text or github)\n", *formatFlag)
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

	var pkgs []*lint.Package
	var module string
	for vi, tags := range [][]string{nil, {"debugcheck"}} {
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

	res := lint.Run(pkgs, lint.Checks(lint.DefaultConfig(module)))
	write := res.WriteText
	if *formatFlag == "github" {
		write = res.WriteGitHub
	}
	if err := write(stdout, root, len(pkgs)); err != nil {
		emit(stderr, "molint: %v\n", err)
		return 2
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}
