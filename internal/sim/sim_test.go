package sim

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"movingdb/internal/fault"
)

// TestCleanRun: no faults, every invariant holds, every expected event
// is delivered exactly.
func TestCleanRun(t *testing.T) {
	res, err := Run(Config{Seed: 7, Ticks: 20})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Verdict
	if !v.Passed() {
		t.Fatalf("violations: %v", v.Violations)
	}
	if want := uint64(23); v.Epochs != want { // opening epoch + 20 ticks + 2 fences
		t.Fatalf("epochs = %d, want %d", v.Epochs, want)
	}
	if v.Accepted != 22 || v.Rejected503 != 0 {
		t.Fatalf("accepted=%d rejected=%d, want 22/0", v.Accepted, v.Rejected503)
	}
	if v.DeliveredEvents != v.ExpectedEvents {
		t.Fatalf("delivered %d of %d expected events", v.DeliveredEvents, v.ExpectedEvents)
	}
	if v.ExpectedEvents == 0 {
		t.Fatal("run produced no standing-query events; fleets or subscriptions are misconfigured")
	}
	if v.Queries == 0 || v.LogHash == "" {
		t.Fatalf("suspicious verdict: %+v", v)
	}
}

// TestDeterminismWalErr: the wal-err profile (WAL seam only — works in
// every build) must reproduce a byte-identical log and verdict, while
// demonstrating a full degrade→probe→recover cycle with zero
// violations.
func TestDeterminismWalErr(t *testing.T) {
	profile, err := LookupProfile("wal-err")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 11, Ticks: 24, Profile: profile}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Verdict.Passed() {
		t.Fatalf("violations: %v", a.Verdict.Violations)
	}
	if a.Verdict.Rejected503 == 0 {
		t.Fatal("wal-err produced no 503s; the fault window never took effect")
	}
	if a.Verdict.DegradeCycles < 1 {
		t.Fatalf("degrade cycles = %d, want >= 1", a.Verdict.DegradeCycles)
	}
	if !reflect.DeepEqual(a.Verdict, b.Verdict) {
		t.Fatalf("verdicts differ:\n%+v\n%+v", a.Verdict, b.Verdict)
	}
	if !reflect.DeepEqual(a.Log, b.Log) {
		for i := range a.Log {
			if i < len(b.Log) && a.Log[i] != b.Log[i] {
				t.Fatalf("log line %d differs:\n%s\n%s", i, a.Log[i], b.Log[i])
			}
		}
		t.Fatalf("log lengths differ: %d vs %d", len(a.Log), len(b.Log))
	}
	if a.Verdict.LogHash != b.Verdict.LogHash {
		t.Fatalf("log hashes differ: %s vs %s", a.Verdict.LogHash, b.Verdict.LogHash)
	}
}

// TestTornWal: torn WAL writes must behave like clean failures at the
// API surface — refused, degraded, recovered — with no invariant
// violation.
func TestTornWal(t *testing.T) {
	profile, err := LookupProfile("wal-torn")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Seed: 3, Ticks: 24, Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.Passed() {
		t.Fatalf("violations: %v", res.Verdict.Violations)
	}
	if res.Verdict.Rejected503 == 0 || res.Verdict.DegradeCycles < 1 {
		t.Fatalf("want rejects and a recovery cycle, got %+v", res.Verdict)
	}
}

// TestProfileValidation: stale sites and nondeterministic specs are
// startup errors.
func TestProfileValidation(t *testing.T) {
	cases := []struct {
		name    string
		profile Profile
		wantSub string
	}{
		{
			name:    "unknown site",
			profile: Profile{Name: "x", Flips: []Flip{{Frac: 0.5, Site: "wal.fsync", Spec: errSpec()}}},
			wantSub: "unknown failpoint site",
		},
		{
			name:    "bad fraction",
			profile: Profile{Name: "x", Flips: []Flip{{Frac: 1.5, Site: "wal.put", Spec: errSpec()}}},
			wantSub: "fraction",
		},
		{
			name:    "probabilistic",
			profile: Profile{Name: "x", Flips: []Flip{{Frac: 0.5, Site: "wal.put", Spec: &fault.Spec{Mode: fault.ModeError, Prob: 0.5}}}},
			wantSub: "Prob",
		},
		{
			name:    "latency",
			profile: Profile{Name: "x", Flips: []Flip{{Frac: 0.5, Site: "wal.put", Spec: &fault.Spec{Mode: fault.ModeLatency}}}},
			wantSub: "latency",
		},
		{
			name:    "times off sse",
			profile: Profile{Name: "x", Flips: []Flip{{Frac: 0.5, Site: "wal.put", Spec: &fault.Spec{Mode: fault.ModeError, Times: 3}}}},
			wantSub: "Times",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.profile.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("want error containing %q, got %v", tc.wantSub, err)
			}
		})
	}
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("built-in profile %s fails its own validation: %v", p.Name, err)
		}
	}
}

// TestLookupProfile: resolution and the unknown-name error listing the
// catalog.
func TestLookupProfile(t *testing.T) {
	p, err := LookupProfile("mixed")
	if err != nil || p.Name != "mixed" {
		t.Fatalf("lookup mixed: %v %v", p, err)
	}
	_, err = LookupProfile("nope")
	if err == nil || !strings.Contains(err.Error(), "mixed") {
		t.Fatalf("want the error to list known profiles, got %v", err)
	}
}

// TestSchedule: fractions land on 1-based ticks inside the run.
func TestSchedule(t *testing.T) {
	p := Profile{Name: "x", Flips: []Flip{
		{Frac: 0, Site: "wal.put", Spec: errSpec()},
		{Frac: 0.5, Site: "wal.put"},
		{Frac: 0.99, Site: "wal.get", Spec: errSpec()},
	}}
	sched := p.schedule(10)
	if len(sched[1]) != 1 || sched[1][0].Spec == nil {
		t.Fatalf("frac 0 should arm at tick 1: %+v", sched)
	}
	if len(sched[6]) != 1 || sched[6][0].Spec != nil {
		t.Fatalf("frac 0.5 should clear at tick 6: %+v", sched)
	}
	if len(sched[10]) != 1 {
		t.Fatalf("frac 0.99 should land at tick 10: %+v", sched)
	}
}

// TestSSEReaderSnapshotDuringStream copies a reader's events while its
// stream is still delivering, as checkEvents does under a stream-cut
// profile, so -race sees both sides of the reader's lock.
func TestSSEReaderSnapshotDuringStream(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		for range 50 {
			fmt.Fprint(w, "event: enter\ndata: {}\n\n")
			w.(http.Flusher).Flush()
		}
		fmt.Fprint(w, "event: bye\n\n")
	}))
	defer ts.Close()
	rd := &sseReader{url: ts.URL}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rd.streamOnce(ts.Client())
	}()
	for {
		select {
		case <-done:
			if n := len(rd.snapshot()); n != 50 {
				t.Fatalf("reader collected %d events, want 50", n)
			}
			return
		default:
			rd.snapshot()
		}
	}
}
