package sim

import (
	"reflect"
	"testing"
)

// These tests exercise the hook failpoint sites (epoch.publish,
// live.notify, sse.write). The Makefile's `chaos` target runs them with
// -race.

// TestChaosPublishSkip: epoch publishes defer for a window. Writes ack
// but stay invisible; reads keep serving the last published epoch; the
// first clean flush folds everything in.
func TestChaosPublishSkip(t *testing.T) {
	profile, err := LookupProfile("publish-skip")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Seed: 5, Ticks: 24, Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Verdict
	if !v.Passed() {
		t.Fatalf("violations: %v", v.Violations)
	}
	if v.Rejected503 != 0 {
		t.Fatalf("publish faults must not refuse writes, got %d rejects", v.Rejected503)
	}
	if v.Epochs >= uint64(v.Accepted) {
		t.Fatalf("epochs = %d with %d accepted ticks; the deferred-publish window never held anything back", v.Epochs, v.Accepted)
	}
}

// TestChaosNotifyWedge: standing-query wake-ups are lost for a window.
// Delivery defers until the next successful notify; nothing is dropped
// or reordered, so the exact event comparison must still hold.
func TestChaosNotifyWedge(t *testing.T) {
	profile, err := LookupProfile("notify-wedge")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Seed: 6, Ticks: 24, Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.Passed() {
		t.Fatalf("violations: %v", res.Verdict.Violations)
	}
	if res.Verdict.DeliveredEvents != res.Verdict.ExpectedEvents {
		t.Fatalf("delivered %d of %d events", res.Verdict.DeliveredEvents, res.Verdict.ExpectedEvents)
	}
}

// TestChaosSseCut: two streams break mid-flight; readers reconnect and
// subscriptions survive with order preserved (tolerant comparison —
// events taken by a cut stream are client losses, not server faults).
func TestChaosSseCut(t *testing.T) {
	profile, err := LookupProfile("sse-cut")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Seed: 8, Ticks: 24, Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.Passed() {
		t.Fatalf("violations: %v", res.Verdict.Violations)
	}
	if res.Verdict.DeliveredEvents != -1 {
		t.Fatalf("sse.write profiles use tolerant delivery accounting, got %d", res.Verdict.DeliveredEvents)
	}
}

// TestChaosMixedDeterministic: the acceptance gauntlet — WAL outage,
// deferred publishes, lost wake-ups and stream cuts in one run — holds
// every invariant, completes a degrade→recover cycle, and reproduces
// bit-for-bit from the seed.
func TestChaosMixedDeterministic(t *testing.T) {
	profile, err := LookupProfile("mixed")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 42, Ticks: 40, Profile: profile}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Verdict.Passed() {
		t.Fatalf("violations: %v", a.Verdict.Violations)
	}
	if a.Verdict.DegradeCycles < 1 {
		t.Fatalf("degrade cycles = %d, want >= 1", a.Verdict.DegradeCycles)
	}
	if a.Verdict.Rejected503 == 0 {
		t.Fatal("the WAL window produced no 503s")
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Verdict, b.Verdict) {
		t.Fatalf("verdicts differ:\n%+v\n%+v", a.Verdict, b.Verdict)
	}
	if a.Verdict.LogHash != b.Verdict.LogHash {
		t.Fatalf("log hashes differ: %s vs %s", a.Verdict.LogHash, b.Verdict.LogHash)
	}
}
