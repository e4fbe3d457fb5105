package movingdb_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesAndTools builds and runs every example and every command
// once with small parameters, so the runnable surface of the repository
// cannot rot. Skipped with -short (it compiles several binaries).
func TestExamplesAndTools(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example execution in -short mode")
	}
	runs := []struct {
		name string
		args []string
		want string // substring expected in the combined output
	}{
		{"quickstart", []string{"run", "./examples/quickstart"}, "inside the zone"},
		{"flights", []string{"run", "./examples/flights", "-n", "12"}, "Q2"},
		{"hurricane", []string{"run", "./examples/hurricane", "-ships", "2"}, "storm:"},
		{"storagedemo", []string{"run", "./examples/storagedemo"}, "round trip ok"},
		{"wildlife", []string{"run", "./examples/wildlife"}, "herd size over time"},
		{"serving", []string{"run", "./examples/serving"}, "timed-out query: HTTP 408"},
		{"motables", []string{"run", "./cmd/motables"}, "mapping(uregion)"},
		{"mofigures", []string{"run", "./cmd/mofigures", "-fig", "8"}, "refinement"},
		{"moquery", []string{"run", "./cmd/moquery", "-n", "10"}, "(airline: string"},
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			out, err := exec.Command("go", r.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v: %v\n%s", r.args, err, out)
			}
			if !strings.Contains(string(out), r.want) {
				t.Fatalf("output of %v missing %q:\n%s", r.args, r.want, out)
			}
		})
	}
}
