package ingest

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/mapping"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
	"movingdb/internal/workload"
)

// toObservations converts the workload's stream shape to the wire
// shape.
func toObservations(ws []workload.Observation) []Observation {
	out := make([]Observation, len(ws))
	for i, w := range ws {
		out[i] = Observation{ObjectID: w.ID, T: float64(w.T), X: w.P.X, Y: w.P.Y}
	}
	return out
}

// feed pushes the stream through the pipeline in batches of the given
// size, retrying on backpressure by flushing, then drains.
func feed(t *testing.T, p *Pipeline, obsns []Observation, batchSize int) {
	t.Helper()
	for lo := 0; lo < len(obsns); lo += batchSize {
		hi := min(lo+batchSize, len(obsns))
		if _, err := p.Ingest(obsns[lo:hi]); err != nil {
			if errors.Is(err, ErrBackpressure) {
				p.Flush()
				if _, err = p.Ingest(obsns[lo:hi]); err == nil {
					continue
				}
			}
			t.Fatalf("ingest batch [%d:%d): %v", lo, hi, err)
		}
	}
	p.Flush()
}

// TestOnlineMatchesOffline is the acceptance property: the mapping an
// object accumulates through the live append path is unit-for-unit
// identical to the offline sliced construction (MPointFromSamples) over
// the same observation sequence — same intervals, same closure flags,
// same motion coefficients, same compaction decisions.
func TestOnlineMatchesOffline(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99} {
		for _, batchSize := range []int{1, 3, 17, 1000} {
			t.Run(fmt.Sprintf("seed=%d/batch=%d", seed, batchSize), func(t *testing.T) {
				g := workload.New(seed)
				stream := g.ObservationStream("obj", 8, 60, 0, 1, 5)
				p, err := Open(Config{FlushSize: 5, MaxAge: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				feed(t, p, toObservations(stream), batchSize)

				perObject := map[string][]moving.Sample{}
				var order []string
				for _, w := range stream {
					if _, ok := perObject[w.ID]; !ok {
						order = append(order, w.ID)
					}
					perObject[w.ID] = append(perObject[w.ID], moving.Sample{T: w.T, P: w.P})
				}
				for _, id := range order {
					want, err := moving.MPointFromSamples(perObject[id])
					if err != nil {
						t.Fatalf("offline build %s: %v", id, err)
					}
					got, ok := p.Epoch().Snapshot(id)
					if !ok {
						t.Fatalf("object %s missing from live store", id)
					}
					if err := got.M.Validate(); err != nil {
						t.Fatalf("%s: live mapping invalid: %v", id, err)
					}
					gu, wu := got.M.Units(), want.M.Units()
					if len(gu) != len(wu) {
						t.Fatalf("%s: %d live units, %d offline", id, len(gu), len(wu))
					}
					for i := range gu {
						if gu[i] != wu[i] {
							t.Fatalf("%s unit %d: live %v, offline %v", id, i, gu[i], wu[i])
						}
					}
				}
			})
		}
	}
}

// TestCompactionMergesContinuedMotion checks the online minimality
// rule: observations continuing the same linear motion extend the
// previous unit instead of adding one, and a change of motion starts a
// new unit.
func TestCompactionMergesContinuedMotion(t *testing.T) {
	p, err := Open(Config{FlushSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	send := func(ts, x, y float64) {
		t.Helper()
		if _, err := p.Ingest([]Observation{{ObjectID: "a", T: ts, X: x, Y: y}}); err != nil {
			t.Fatal(err)
		}
	}
	// Constant velocity (1, 0): one unit regardless of sample count.
	for i := 0; i <= 4; i++ {
		send(float64(i), float64(i), 0)
	}
	p.Flush()
	mp, _ := p.Epoch().Snapshot("a")
	if n := mp.M.Len(); n != 1 {
		t.Fatalf("collinear run: want 1 unit, got %d", n)
	}
	// Turn: second unit.
	send(5, 4, 1)
	// Rest at (4, 1): third unit, then still third after more resting.
	send(6, 4, 1)
	send(7, 4, 1)
	p.Flush()
	mp, _ = p.Epoch().Snapshot("a")
	if n := mp.M.Len(); n != 3 {
		t.Fatalf("turn+rest: want 3 units, got %d", n)
	}
	if compacted := p.store.stats().Compacted; compacted != 4 {
		t.Fatalf("want 4 compactions (3 collinear + 1 rest), got %d", compacted)
	}
	if err := mp.M.Validate(); err != nil {
		t.Fatal(err)
	}
	// The merged mapping still evaluates correctly mid-unit.
	if v := mp.AtInstant(2.5); !v.Defined() || v.P != geom.Pt(2.5, 0) {
		t.Fatalf("atinstant on merged unit: got %+v", v)
	}
}

// TestNonMonotoneDropped checks that observations at or before an
// object's latest time are dropped, counted, and leave the mapping
// valid.
func TestNonMonotoneDropped(t *testing.T) {
	p, err := Open(Config{FlushSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	batch := []Observation{
		{ObjectID: "a", T: 1, X: 0, Y: 0},
		{ObjectID: "a", T: 2, X: 1, Y: 0},
		{ObjectID: "a", T: 2, X: 9, Y: 9},   // duplicate time
		{ObjectID: "a", T: 1.5, X: 9, Y: 9}, // goes back
		{ObjectID: "a", T: 3, X: 2, Y: 0},
	}
	if _, err := p.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	if st := p.store.stats(); st.Applied != 3 || st.Dropped != 2 {
		t.Fatalf("want applied=3 dropped=2, got %d/%d", st.Applied, st.Dropped)
	}
	mp, _ := p.Epoch().Snapshot("a")
	if err := mp.M.Validate(); err != nil {
		t.Fatal(err)
	}
	if v := mp.AtInstant(3); v.P != geom.Pt(2, 0) {
		t.Fatalf("final position: %+v", v)
	}
}

// TestBackpressure checks the bounded queue: past MaxQueued, Ingest
// fails with ErrBackpressure, nothing is logged, and the queue drains
// on Flush.
func TestBackpressure(t *testing.T) {
	m := obs.New(0)
	p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour, MaxQueued: 4, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ok := []Observation{
		{ObjectID: "a", T: 1, X: 0, Y: 0}, {ObjectID: "a", T: 2, X: 1, Y: 0},
		{ObjectID: "b", T: 1, X: 0, Y: 0}, {ObjectID: "b", T: 2, X: 1, Y: 0},
	}
	seq, err := p.Ingest(ok)
	if err != nil || seq != 1 {
		t.Fatalf("first batch: seq=%d err=%v", seq, err)
	}
	if _, err := p.Ingest([]Observation{{ObjectID: "c", T: 1, X: 0, Y: 0}}); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("want ErrBackpressure, got %v", err)
	}
	if s := p.Stats(); s.WALSeq != 1 {
		t.Fatalf("rejected batch must not reach the WAL: seq=%d", s.WALSeq)
	}
	p.Flush()
	if _, err := p.Ingest([]Observation{{ObjectID: "c", T: 1, X: 0, Y: 0}}); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	snap := m.Snapshot().Ingest
	if snap.Backpressure != 1 || snap.Batches != 2 {
		t.Fatalf("metrics: %+v", snap)
	}
}

// TestValidation rejects malformed batches before they touch the log,
// and a batch larger than MaxQueued with them: no queue, not even an
// empty one, could admit it, so it is a 400, not a 429 whose retry can
// never succeed.
func TestValidation(t *testing.T) {
	p, err := Open(Config{MaxQueued: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, bad := range [][]Observation{
		nil,
		{},
		{{ObjectID: "", T: 1}},
		{{ObjectID: "a", T: math.NaN()}},
		{{ObjectID: "a", T: 1, X: math.Inf(1)}},
		{{ObjectID: "a", T: 1}, {ObjectID: "a", T: 2}, {ObjectID: "a", T: 3}, {ObjectID: "a", T: 4}, {ObjectID: "a", T: 5}},
	} {
		if _, err := p.Ingest(bad); !errors.Is(err, ErrInvalidObservation) {
			t.Fatalf("batch %v: want ErrInvalidObservation, got %v", bad, err)
		}
	}
	if s := p.Stats(); s.WALSeq != 0 {
		t.Fatalf("invalid batches must not reach the WAL: seq=%d", s.WALSeq)
	}
}

// TestOpenRejectsNegativeConfig: zero asks for a default, and a negative
// tuning value is an Open error, not a pipeline that nil-dereferences on
// its first Ingest (RetryAttempts) or refuses every batch (MaxQueued).
// CheckpointPages keeps -1 as "off"; -2 means nothing and is refused.
func TestOpenRejectsNegativeConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"FlushSize":         {FlushSize: -1},
		"MaxAge":            {MaxAge: -time.Millisecond},
		"MaxQueued":         {MaxQueued: -1},
		"RetryAttempts":     {RetryAttempts: -1},
		"RetryBase":         {RetryBase: -time.Millisecond},
		"RetryMaxWait":      {RetryMaxWait: -time.Millisecond},
		"DegradedThreshold": {DegradedThreshold: -1},
		"ProbeInterval":     {ProbeInterval: -time.Second},
		"CheckpointPages":   {CheckpointPages: -2},
	} {
		if p, err := Open(cfg); err == nil {
			p.Close()
			t.Errorf("negative %s: Open succeeded", name)
		}
	}
	p, err := Open(Config{CheckpointPages: -1})
	if err != nil {
		t.Fatalf("CheckpointPages -1: %v", err)
	}
	p.Close()
}

// TestSeededPipelineExtends checks that live observations extend seeded
// (offline-built) mappings and the window index sees both the seeded
// base units and the live delta units.
func TestSeededPipelineExtends(t *testing.T) {
	seed, err := moving.MPointFromSamples([]moving.Sample{
		{T: 0, P: geom.Pt(0, 0)}, {T: 10, P: geom.Pt(10, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Open(Config{SeedIDs: []string{"s"}, Seeds: []moving.MPoint{seed}, FlushSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Continue the same motion: must compact into the seeded unit.
	if _, err := p.Ingest([]Observation{{ObjectID: "s", T: 11, X: 11, Y: 0}}); err != nil {
		t.Fatal(err)
	}
	// Then turn.
	if _, err := p.Ingest([]Observation{{ObjectID: "s", T: 12, X: 11, Y: 5}}); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	mp, _ := p.Epoch().Snapshot("s")
	if err := mp.M.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := mp.M.Len(); n != 2 {
		t.Fatalf("want 2 units (extended seed + turn), got %d", n)
	}
	// The base index covers the seeded extent, the delta the live one.
	if got := p.Epoch().Window(geom.Rect{MinX: 4, MinY: -1, MaxX: 6, MaxY: 1}, temporal.Closed(0, 20)); len(got) != 1 || got[0] != "s" {
		t.Fatalf("seeded extent window: %v", got)
	}
	if got := p.Epoch().Window(geom.Rect{MinX: 10, MinY: 4, MaxX: 12, MaxY: 6}, temporal.Closed(0, 20)); len(got) != 1 || got[0] != "s" {
		t.Fatalf("live extent window: %v", got)
	}
	if got := p.Epoch().Window(geom.Rect{MinX: 100, MinY: 100, MaxX: 200, MaxY: 200}, temporal.Closed(0, 20)); len(got) != 0 {
		t.Fatalf("empty window: %v", got)
	}
}

// TestDegenerateSeedTail covers the one tail shape the reopen step
// cannot handle: a seeded mapping ending in a degenerate closed unit
// [t, t]. The next live unit must chain left-open instead.
func TestDegenerateSeedTail(t *testing.T) {
	u := units.StaticUPoint(temporal.Closed(5, 5), geom.Pt(1, 1))
	seed := moving.MPoint{M: mapping.FromOrdered([]units.UPoint{u})}
	p, err := Open(Config{SeedIDs: []string{"d"}, Seeds: []moving.MPoint{seed}, FlushSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Ingest([]Observation{{ObjectID: "d", T: 6, X: 2, Y: 1}}); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	mp, _ := p.Epoch().Snapshot("d")
	if err := mp.M.Validate(); err != nil {
		t.Fatalf("degenerate tail chain: %v", err)
	}
	if n := mp.M.Len(); n != 2 {
		t.Fatalf("want 2 units, got %d", n)
	}
	if v := mp.AtInstant(5); v.P != geom.Pt(1, 1) {
		t.Fatalf("at the degenerate instant: %+v", v)
	}
	if v := mp.AtInstant(6); v.P != geom.Pt(2, 1) {
		t.Fatalf("after the chained unit: %+v", v)
	}
}

// TestAgeFlush checks that pending observations become visible without
// an explicit flush once MaxAge passes.
func TestAgeFlush(t *testing.T) {
	p, err := Open(Config{FlushSize: 1 << 20, MaxAge: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Ingest([]Observation{
		{ObjectID: "a", T: 1, X: 0, Y: 0}, {ObjectID: "a", T: 2, X: 1, Y: 0},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := p.Epoch().Snapshot("a"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("age-based flush never applied the batch")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCloseDrains checks that Close applies everything still pending
// and further ingest fails with ErrClosed.
func TestCloseDrains(t *testing.T) {
	p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest([]Observation{
		{ObjectID: "a", T: 1, X: 0, Y: 0}, {ObjectID: "a", T: 2, X: 3, Y: 4},
	}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, ok := p.Epoch().Snapshot("a"); !ok {
		t.Fatal("close did not drain the pending run")
	}
	if _, err := p.Ingest([]Observation{{ObjectID: "b", T: 1, X: 0, Y: 0}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestWindowMatchesScan cross-checks the index window path against a
// scan over the snapshots, with the sealed chunks spread over ladder
// rungs (at least one fold merged rungs) and some still waiting for a
// fold, so the epoch's extra rung holds sealed chunks beside the open
// ones.
func TestWindowMatchesScan(t *testing.T) {
	g := workload.New(11)
	stream := g.ObservationStream("w", 12, 240, 0, 1, 8)
	p, err := Open(Config{FlushSize: 4, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	feed(t, p, toObservations(stream), 37)
	st := p.Stats()
	if open := p.Epoch().idx.Len() - st.RungEntries - st.TailEntries; st.RungEntries == 0 || st.TailEntries == 0 || st.IndexMerges == 0 || open == 0 {
		t.Fatalf("test needs merged rungs, waiting sealed chunks (tail_entries > 0) and open chunks to be meaningful: %+v, open=%d", st, open)
	}
	// The periods run to the stream's end, where the waiting chunks are.
	for i := 0; i < 30; i++ {
		x, y := float64(i*30), float64((i*17)%900)
		rect := geom.Rect{MinX: x, MinY: y, MaxX: x + 120, MaxY: y + 120}
		iv := temporal.Closed(temporal.Instant(i*8), temporal.Instant(i*8+10))
		if got, want := p.Epoch().Window(rect, iv), scanWindow(p.Epoch(), rect, iv); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("query %d (%v, %v): index %v, scan %v", i, rect, iv, got, want)
		}
	}
}

// TestFoldRulePinned feeds BenchmarkIngestEpisode's stream, 570 trackers
// for 201 ticks, and pins what the fold rule leaves behind: the entries
// of the final epoch's index (every sealed chunk plus one open chunk per
// object) and the folds that merged rungs. Both are functions of the
// insert sequence alone, so they move only if the carry rule, the
// 64-chunk fold threshold or chunk sealing does.
func TestFoldRulePinned(t *testing.T) {
	p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ingestTicks(t, p, episodeStream())
	if entries, merges := p.Epoch().idx.Len(), p.Stats().IndexMerges; entries != 10036 || merges != 56 {
		t.Fatalf("episode left %d index entries after %d merging folds, want 10036 after 56", entries, merges)
	}
}
