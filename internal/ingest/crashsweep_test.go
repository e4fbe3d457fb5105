package ingest

import (
	"bytes"
	"testing"
	"time"

	"movingdb/internal/storage"
	"movingdb/internal/workload"
)

// TestCrashPointSweep is the recovery subsystem's acceptance harness:
// it records the durable WAL image of a run that interleaves acked
// batches with checkpoints (including one that compacts the log head),
// then replays recovery from EVERY byte prefix of that image — every
// possible torn state of the medium. For each prefix, recovery must
//
//   - never fail open (a crash artifact is truncated or quarantined,
//     not fatal);
//   - restore exactly some prefix of the acked batch history: the
//     recovered WAL sequence j identifies it, and the recovered state
//     must be bit-identical to a pipeline that ingested batches 1..j
//     and never crashed;
//   - be monotone: a longer surviving prefix never recovers less;
//   - recover every acked batch (j = K) from the full image.
//
// The page store loads whole pages and discards a torn final page, so
// recovery is a pure function of the whole-page count a prefix yields;
// the sweep verifies every byte prefix through the lenient loader and
// runs the full pipeline-open check whenever that function can change
// (each page boundary), plus a fixed stride inside pages as a
// cross-check of that invariant itself.
func TestCrashPointSweep(t *testing.T) {
	g := workload.New(31)
	stream := toObservations(g.ObservationStream("sw", 5, 40, 0, 1, 4))

	// The acked history: small single-page batches, one multi-page batch
	// (so prefixes can tear mid-record), checkpoints after batches 4 and
	// 8 (the second compacts the head away).
	var batches [][]Observation
	for lo := 0; lo < len(stream) && len(batches) < 10; lo += 9 {
		batches = append(batches, stream[lo:min(lo+9, len(stream))])
	}
	big := make([]Observation, 300)
	for i := range big {
		big[i] = Observation{ObjectID: "bulk", T: float64(i), X: float64(i), Y: 1}
	}
	batches = append(batches[:6:6], append([][]Observation{big}, batches[6:]...)...)
	K := uint64(len(batches))

	// expected[j]: the fingerprint of a pipeline that ingested batches
	// 1..j and never crashed.
	expected := make(map[uint64]string, K+1)
	for j := uint64(0); j <= K; j++ {
		ref, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour, CheckpointPages: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[:j] {
			if _, err := ref.Ingest(b); err != nil {
				t.Fatal(err)
			}
		}
		ref.Flush()
		expected[j] = fingerprint(ref)
		ref.Close()
	}

	// The recorded run. Its size trigger fires inside the swept history
	// (and its age trigger may): the state is a function of the WAL
	// prefix alone, whatever the drain schedule.
	log := storage.NewPageStore()
	p, err := Open(Config{Log: log, FlushSize: 4, CheckpointPages: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if seq, err := p.Ingest(b); err != nil || seq != uint64(i+1) {
			t.Fatalf("batch %d: seq=%d err=%v", i, seq, err)
		}
		if i == 3 || i == 7 {
			forceCheckpoint(p)
		}
	}
	if st := p.Stats(); st.WALCheckpoints != 2 {
		t.Fatalf("recorded run wrote %d checkpoints, want 2", st.WALCheckpoints)
	}
	var img bytes.Buffer
	if _, err := log.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	p.Close()
	raw := img.Bytes()

	check := func(cut int, ps *storage.PageStore) uint64 {
		t.Helper()
		rp, err := Open(Config{Log: ps, FlushSize: 1 << 20, MaxAge: time.Hour, CheckpointPages: -1})
		if err != nil {
			t.Fatalf("cut %d: recovery failed open: %v", cut, err)
		}
		defer rp.Close()
		seq := rp.Stats().WALSeq
		want, ok := expected[seq]
		if !ok {
			t.Fatalf("cut %d: recovered to sequence %d, not a prefix of the %d acked batches", cut, seq, K)
		}
		if got := fingerprint(rp); got != want {
			t.Fatalf("cut %d: state at sequence %d diverges from the never-crashed reference:\n got %s\nwant %s", cut, seq, got, want)
		}
		return seq
	}

	lastPages, lastSeq := -1, uint64(0)
	for cut := 0; cut <= len(raw); cut++ {
		ps, _, err := storage.RecoverPageStore(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("cut %d: lenient loader failed: %v", cut, err)
		}
		boundary := ps.NumPages() != lastPages
		if boundary || cut%997 == 0 || cut == len(raw) {
			seq := check(cut, ps)
			if seq < lastSeq {
				t.Fatalf("cut %d: recovery went backwards: sequence %d after %d", cut, seq, lastSeq)
			}
			lastSeq = seq
			lastPages = ps.NumPages()
		}
	}
	if lastSeq != K {
		t.Fatalf("full image recovered sequence %d, want every acked batch (%d)", lastSeq, K)
	}
}
