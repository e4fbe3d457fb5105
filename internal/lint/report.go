package lint

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// relPath renders file relative to the module root when it lives under
// it, so output is stable across checkouts and usable as CI annotations.
func relPath(root, file string) string {
	if prefix := root + string(os.PathSeparator); strings.HasPrefix(file, prefix) {
		return file[len(prefix):]
	}
	return file
}

// WriteText emits one line per finding, the per-check tally table and
// the closing summary line. packages is the number of package variants
// analyzed.
func (res Result) WriteText(w io.Writer, root string, packages int) error {
	for _, f := range res.Findings {
		f.Pos.Filename = relPath(root, f.Pos.Filename)
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	ids := make([]string, 0, len(res.Checks))
	width := len("check")
	for id := range res.Checks {
		ids = append(ids, id)
		width = max(width, len(id))
	}
	sort.Strings(ids)
	if _, err := fmt.Fprintf(w, "%-*s  %8s  %10s\n", width, "check", "findings", "suppressed"); err != nil {
		return err
	}
	for _, id := range ids {
		t := res.Checks[id]
		if _, err := fmt.Fprintf(w, "%-*s  %8d  %10d\n", width, id, t.Findings, t.Suppressed); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "molint: %d finding(s), %d suppressed, %d package(s)\n",
		len(res.Findings), res.Suppressed, packages)
	return err
}

// WriteGitHub emits findings as GitHub Actions workflow commands, which
// the Actions runner turns into inline PR annotations.
func (res Result) WriteGitHub(w io.Writer, root string, packages int) error {
	for _, f := range res.Findings {
		if _, err := fmt.Fprintf(w, "::error file=%s,line=%d,col=%d::[%s] %s\n",
			relPath(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Check, f.Message); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "::notice::molint: %d finding(s), %d suppressed, %d package(s)\n",
		len(res.Findings), res.Suppressed, packages)
	return err
}
