package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// runMolint invokes the command's run function capturing both streams.
func runMolint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// fixtureChecks maps every check to its golden fixture directory.
var fixtureChecks = map[string]string{
	"float-eq":   "floateq",
	"index-only": "indexonly",
}

// TestFixturesExitOne runs the default suite over each golden fixture
// directory: the check it demonstrates must report (with a
// module-root-relative path and a row in the tally table) and the
// process must signal failure.
func TestFixturesExitOne(t *testing.T) {
	for check, fixture := range fixtureChecks {
		dir := "internal/lint/testdata/src/" + fixture
		code, stdout, stderr := runMolint(t, "./"+dir)
		if code != 1 {
			t.Errorf("%s: exit = %d, want 1 (stderr: %s)", dir, code, stderr)
		}
		if !strings.HasPrefix(stdout, dir+"/"+fixture+".go:") {
			t.Errorf("%s: output does not start with a module-root-relative finding:\n%s", dir, stdout)
		}
		if !strings.Contains(stdout, "["+check+"] ") {
			t.Errorf("check %s produced no findings on its fixture:\n%s", check, stdout)
		}
		if !strings.Contains(stdout, "  findings  suppressed\n") || !strings.Contains(stdout, "\nmolint: ") {
			t.Errorf("%s: text output missing the tally table or the summary line:\n%s", dir, stdout)
		}
	}
}

// TestConcurrentPackagesClean asserts the five concurrent packages are
// clean: the full suite reports nothing on them.
func TestConcurrentPackagesClean(t *testing.T) {
	code, stdout, stderr := runMolint(t,
		"./internal/obs", "./internal/ingest", "./internal/index",
		"./internal/fault", "./internal/server",
	)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// TestGitHubFormat checks the workflow-command rendering CI consumes.
func TestGitHubFormat(t *testing.T) {
	code, stdout, _ := runMolint(t,
		"-format=github",
		"./internal/lint/testdata/src/floateq",
	)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "::error file=internal/lint/testdata/src/floateq/floateq.go,line=") {
		t.Errorf("github format missing ::error annotation:\n%s", stdout)
	}
	if !strings.Contains(stdout, "::notice::molint:") {
		t.Errorf("github format missing summary notice:\n%s", stdout)
	}
}

// TestStaleSuppressions asserts the fixture's well-formed directive that
// suppresses nothing is reported.
func TestStaleSuppressions(t *testing.T) {
	_, stdout, _ := runMolint(t, "./internal/lint/testdata/src/suppress")
	if !strings.Contains(stdout, "molint:ignore float-eq suppresses nothing") {
		t.Errorf("stale directive not reported:\n%s", stdout)
	}
}

// TestTextReportDeterministic runs the full suite over the fixture tree
// twice and requires byte-identical output: map-order leaks, pointer
// formatting, or clock reads anywhere in the pipeline would show up as
// a diff.
func TestTextReportDeterministic(t *testing.T) {
	code1, out1, err1 := runMolint(t, "./internal/lint/testdata/src/...")
	code2, out2, err2 := runMolint(t, "./internal/lint/testdata/src/...")
	if code1 != 1 || code2 != 1 {
		t.Fatalf("exit codes %d, %d; want 1, 1 (stderr: %s / %s)", code1, code2, err1, err2)
	}
	if out1 != out2 {
		t.Fatalf("output differs between identical runs:\nrun1:\n%s\nrun2:\n%s", out1, out2)
	}
}

// TestBadFlags covers the operational-error exit code, including every
// flag this command used to take.
func TestBadFlags(t *testing.T) {
	fixture := "./internal/lint/testdata/src/suppress"
	for _, arg := range []string{"-format=yaml", "-format=json", "-format=sarif", "-checks=no-such-check",
		"-checks=atomic-mix", "-checks=float-eq", "-summary", "-stale-suppressions", "-suggest", "-timings", "-tags=faultinject"} {
		if code, _, _ := runMolint(t, arg, fixture); code != 2 {
			t.Errorf("%s: exit = %d, want 2", arg, code)
		}
	}
}

// failWriter refuses every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// TestWriteErrorExitsTwo: a report that cannot be written is an
// operational error, whatever the findings were.
func TestWriteErrorExitsTwo(t *testing.T) {
	var errb bytes.Buffer
	if code := run([]string{"./internal/lint/testdata/src/floateq"}, failWriter{}, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", code, errb.String())
	}
}
