package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateVerdicts = flag.Bool("update", false, "rewrite testdata/verdicts.golden from this run")

const verdictsGolden = "testdata/verdicts.golden"

// TestVerdictsPinned runs every built-in profile at seeds 1 and 42 for
// the default 60 ticks and holds the SHA-256 of each verdict, as mosim
// prints it, to testdata/verdicts.golden. A verdict is a function of
// (seed, profile, build), so a change that moves one changes what the
// simulated stack answered, and says why when it rewrites the file.
func TestVerdictsPinned(t *testing.T) {
	var got strings.Builder
	for _, p := range Profiles() {
		for _, seed := range []int64{1, 42} {
			res, err := Run(Config{Seed: seed, Profile: p})
			if err != nil {
				t.Fatalf("%s seed %d: %v", p.Name, seed, err)
			}
			out, err := json.MarshalIndent(res.Verdict, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(append(out, '\n'))
			fmt.Fprintf(&got, "%s %d %s\n", p.Name, seed, hex.EncodeToString(sum[:]))
		}
	}
	raw, err := os.ReadFile(verdictsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var header, want strings.Builder
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, "#") {
			header.WriteString(line)
		} else {
			want.WriteString(line)
		}
	}
	if *updateVerdicts {
		if err := os.WriteFile(verdictsGolden, []byte(header.String()+got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got.String() != want.String() {
		t.Errorf("verdict hashes moved (profile seed sha256):\ngot:\n%swant:\n%s", got.String(), want.String())
	}
}
