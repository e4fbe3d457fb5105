package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"movingdb/internal/lint"
)

// runMolint invokes the command's run function capturing both streams.
func runMolint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFixturesExitOne runs only the concurrency-discipline suite over
// its golden fixtures: every check must produce at least one finding
// and the process must signal failure.
func TestFixturesExitOne(t *testing.T) {
	code, stdout, stderr := runMolint(t,
		"-checks=guarded-by,atomic-mix,goroutine-exit",
		"-format=json",
		"./internal/lint/testdata/src/guardedby",
		"./internal/lint/testdata/src/atomicmix",
		"./internal/lint/testdata/src/goroutineexit",
	)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	var rep lint.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("-format=json output does not round-trip: %v\noutput: %s", err, stdout)
	}
	if rep.Summary.Findings != len(rep.Findings) || len(rep.Findings) == 0 {
		t.Fatalf("summary.findings = %d, len(findings) = %d; want equal and > 0",
			rep.Summary.Findings, len(rep.Findings))
	}
	for _, check := range []string{"guarded-by", "atomic-mix", "goroutine-exit"} {
		if rep.Summary.Checks[check].Findings == 0 {
			t.Errorf("check %s produced no findings on its fixture", check)
		}
	}
	for _, f := range rep.Findings {
		if f.File == "" || f.Line == 0 || f.Check == "" || f.Message == "" {
			t.Errorf("incomplete finding in JSON report: %+v", f)
		}
		if strings.HasPrefix(f.File, "/") {
			t.Errorf("finding path %s is absolute; want module-root-relative", f.File)
		}
	}
}

// TestConcurrentPackagesClean asserts the annotation debt of the five
// concurrent packages is zero: the new checks alone report nothing.
func TestConcurrentPackagesClean(t *testing.T) {
	code, stdout, stderr := runMolint(t,
		"-checks=guarded-by,atomic-mix,goroutine-exit",
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
		"-checks=atomic-mix", "-format=github",
		"./internal/lint/testdata/src/atomicmix",
	)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "::error file=internal/lint/testdata/src/atomicmix/atomicmix.go,line=") {
		t.Errorf("github format missing ::error annotation:\n%s", stdout)
	}
	if !strings.Contains(stdout, "::notice::molint:") {
		t.Errorf("github format missing summary notice:\n%s", stdout)
	}
}

// TestSARIFFormat checks the SARIF 2.1.0 rendering consumed by
// github/codeql-action/upload-sarif: a valid document with the rule
// catalog, error-level results, and root-relative forward-slash URIs.
func TestSARIFFormat(t *testing.T) {
	code, stdout, stderr := runMolint(t,
		"-checks=atomic-mix", "-format=sarif",
		"./internal/lint/testdata/src/atomicmix",
	)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("-format=sarif output does not parse: %v\noutput: %s", err, stdout)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("version = %q, runs = %d; want 2.1.0 and 1", doc.Version, len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "molint" || len(run.Tool.Driver.Rules) == 0 {
		t.Errorf("driver = %q with %d rules; want molint with the check catalog",
			run.Tool.Driver.Name, len(run.Tool.Driver.Rules))
	}
	if len(run.Results) == 0 {
		t.Fatal("sarif run has no results on a failing fixture")
	}
	for _, r := range run.Results {
		if r.RuleID != "atomic-mix" || r.Level != "error" || r.Message.Text == "" {
			t.Errorf("incomplete result: %+v", r)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result has %d locations, want 1", len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if uri := loc.ArtifactLocation.URI; strings.HasPrefix(uri, "/") || strings.Contains(uri, "\\") {
			t.Errorf("uri %q is not root-relative with forward slashes", uri)
		}
		if loc.Region.StartLine == 0 {
			t.Errorf("result missing startLine: %+v", r)
		}
	}
}

// TestSuggestMode asserts -suggest prints a ready-to-paste moguard
// annotation under the unannotated-field finding, and that the same
// suggestion rides the JSON report.
func TestSuggestMode(t *testing.T) {
	code, stdout, _ := runMolint(t,
		"-checks=guarded-by", "-suggest",
		"./internal/lint/testdata/src/guardedby",
	)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "\tsuggest: // moguard: ") {
		t.Errorf("-suggest output missing a ready-to-paste annotation:\n%s", stdout)
	}
	_, jsonOut, _ := runMolint(t,
		"-checks=guarded-by", "-format=json",
		"./internal/lint/testdata/src/guardedby",
	)
	var rep lint.Report
	if err := json.Unmarshal([]byte(jsonOut), &rep); err != nil {
		t.Fatalf("json: %v", err)
	}
	found := false
	for _, f := range rep.Findings {
		if strings.HasPrefix(f.Suggestion, "// moguard: ") {
			found = true
		}
	}
	if !found {
		t.Errorf("no finding carries a suggestion in the JSON report:\n%s", jsonOut)
	}
}

// TestStaleSuppressions asserts the flag surfaces the fixture's
// well-formed directive that suppresses nothing, and that the default
// run leaves it alone (stale detection is opt-in).
func TestStaleSuppressions(t *testing.T) {
	_, stdout, _ := runMolint(t,
		"-stale-suppressions",
		"./internal/lint/testdata/src/suppress",
	)
	if !strings.Contains(stdout, "molint:ignore ctx-loop suppresses nothing") {
		t.Errorf("stale directive not reported under -stale-suppressions:\n%s", stdout)
	}
	if !strings.Contains(stdout, "moguard: allocok suppresses nothing") {
		t.Errorf("stale allocok directive not reported under -stale-suppressions:\n%s", stdout)
	}
	_, stdout, _ = runMolint(t, "./internal/lint/testdata/src/suppress")
	if strings.Contains(stdout, "suppresses nothing") {
		t.Errorf("stale finding reported without the flag:\n%s", stdout)
	}
}

// TestJSONReportDeterministic runs the full suite over the whole module
// twice and requires byte-identical JSON: map-order leaks, pointer
// formatting, or clock reads anywhere in the pipeline would show up as
// a diff. This is the acceptance gate for reproducible CI output.
func TestJSONReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-module analysis runs")
	}
	code1, out1, err1 := runMolint(t, "-format=json", "./...")
	code2, out2, err2 := runMolint(t, "-format=json", "./...")
	if code1 != code2 {
		t.Fatalf("exit codes differ: %d vs %d (stderr: %s / %s)", code1, code2, err1, err2)
	}
	if out1 != out2 {
		t.Fatalf("JSON output differs between identical runs:\nrun1:\n%s\nrun2:\n%s", out1, out2)
	}
	if !strings.Contains(out1, "\"findings\"") {
		t.Fatalf("unexpected JSON shape:\n%s", out1)
	}
}

// TestBadFlags covers the operational-error exit code.
func TestBadFlags(t *testing.T) {
	if code, _, _ := runMolint(t, "-format=yaml", "./internal/lint/testdata/src/atomicmix"); code != 2 {
		t.Errorf("unknown format: exit = %d, want 2", code)
	}
	if code, _, _ := runMolint(t, "-checks=no-such-check", "./internal/lint/testdata/src/atomicmix"); code != 2 {
		t.Errorf("unknown check: exit = %d, want 2", code)
	}
}
