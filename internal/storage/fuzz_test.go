package storage

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
	"movingdb/internal/workload"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzMPointRoundTrip from degenerateMPoints")

// FuzzMPointRoundTrip holds the mpoint codec to its two contracts:
// arbitrary bytes through Unflatten and DecodeMPoint never panic, and
// whatever is accepted re-encodes to exactly those bytes — one encoding
// per value (§4: equality by representation), so a valid moving point
// round-trips bit for bit. The checked-in corpus holds the §3.3
// degeneracies (TestMPointCorpus keeps it in step with
// degenerateMPoints).
func FuzzMPointRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}) // array-count bomb
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(EncodeMPoint(workload.New(seed).RandomTrajectory(0, 16, 10, 2)).Flatten())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Unflatten(data)
		if err != nil {
			return
		}
		m, err := DecodeMPoint(e)
		if err != nil {
			return
		}
		if got := EncodeMPoint(m).Flatten(); !bytes.Equal(got, data) {
			t.Fatalf("accepted %d bytes re-encode differently:\n got %x\nwant %x", len(data), got, data)
		}
	})
}

// degenerateMPoints are the §3.3 shapes a stored units array must carry
// unchanged: a degenerate closed unit, the left-open continuation the
// appender chains after one, a static unit, and an unbounded interval.
func degenerateMPoints(t *testing.T) map[string]moving.MPoint {
	t.Helper()
	inf := math.Inf(1)
	a := units.MPoint{X0: 1, X1: 2, Y0: 3, Y1: -1}
	b := units.MPoint{X0: 1, X1: 0.5, Y0: 3, Y1: 0.25}
	out := map[string]moving.MPoint{}
	for name, us := range map[string][]units.UPoint{
		"degenerate-closed":          {units.NewUPoint(iv(3, 3), a)},
		"left-open-after-degenerate": {units.NewUPoint(iv(0, 0), a), units.NewUPoint(temporal.LeftHalfOpen(0, 10), b)},
		"static":                     {units.NewUPoint(rho(0, 10), units.MPoint{X0: 5, Y0: 7}), units.NewUPoint(iv(10, 20), units.MPoint{X0: -5, Y0: 7})},
		"unbounded":                  {units.NewUPoint(temporal.Open(temporal.Instant(-inf), temporal.Instant(inf)), units.MPoint{X0: 4, Y0: -2})},
	} {
		m, err := moving.NewMPoint(us...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = m
	}
	return out
}

// TestMPointCorpus checks that every checked-in corpus entry is the
// current encoding of its degenerate value and that the value
// round-trips bit for bit — so the fuzz target's re-encode check is not
// vacuous on them. Regenerate with -update.
func TestMPointCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzMPointRoundTrip")
	for name, m := range degenerateMPoints(t) {
		flat := EncodeMPoint(m).Flatten()
		entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(flat)) + ")\n"
		path := filepath.Join(dir, name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != entry {
			t.Fatalf("%s: corpus entry is stale or missing (rerun with -update): %v", name, err)
		}
		back, err := DecodeMPoint(EncodeMPoint(m))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(EncodeMPoint(back).Flatten(), flat) {
			t.Fatalf("%s: round trip changed the bytes", name)
		}
	}
}
