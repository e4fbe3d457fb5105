package ingest

import (
	"testing"
	"time"

	"movingdb/internal/fault"
	"movingdb/internal/geom"
	"movingdb/internal/mapping"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/storage"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
	"movingdb/internal/workload"
)

// TestOpenCubesMatchUnits holds the cubes Apply keeps incrementally —
// every slot's open chunk and every sealed chunk waiting for a fold — to
// chunkEntry recomputed from the units, bit for bit, after every drain.
// Each subtest drives one way an append can reach the running cube: the
// fleet_mixed episode (plain appends, seals and folds), straight-line
// motion (every append a merge), a seed ending in a degenerate closed
// unit (the left-open chaining, and a merge into that unit), a publish
// the epoch.publish fault defers, and a pipeline reopened on its log
// (checkpoint recovery through newStore, then replay through Apply).
func TestOpenCubesMatchUnits(t *testing.T) {
	open := func(t *testing.T, cfg Config) *Pipeline {
		t.Helper()
		p, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	check := func(t *testing.T, p *Pipeline) {
		t.Helper()
		p.mu.Lock()
		defer p.mu.Unlock()
		if err := p.store.checkCubes(); err != nil {
			t.Fatal(err)
		}
	}
	// drain ingests batch and flushes it: one drain.
	drain := func(t *testing.T, p *Pipeline, batch []Observation) {
		t.Helper()
		if _, err := p.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		p.Flush()
		check(t, p)
	}

	t.Run("fleet_mixed", func(t *testing.T) {
		p := open(t, Config{FlushSize: 1 << 20, MaxAge: time.Hour})
		stream := episodeStream()
		waited := false
		for lo := 0; lo < len(stream); lo += episodeObjects {
			drain(t, p, stream[lo:lo+episodeObjects])
			waited = waited || p.Stats().TailEntries > 0
		}
		if st := p.Stats(); !waited || st.IndexMerges == 0 || st.Compacted == 0 {
			t.Fatalf("the episode must seal, fold and merge: %+v", st)
		}
	})

	t.Run("straight-line", func(t *testing.T) {
		p := open(t, Config{FlushSize: 1 << 20, MaxAge: time.Hour})
		const n = 30 // 28 merges each: the first fix makes no unit, the second the one unit
		for i := 0; i < n; i += 3 {
			var batch []Observation
			for j := i; j < i+3; j++ {
				ts := float64(j)
				batch = append(batch,
					Observation{ObjectID: "east", T: ts, X: 3*ts + 1, Y: -2 * ts},
					Observation{ObjectID: "west", T: ts, X: -5 * ts, Y: 7})
			}
			drain(t, p, batch)
		}
		if st := p.Stats(); st.Units != 2 || st.Compacted != 2*(n-2) {
			t.Fatalf("straight lines left %d units after %d merges, want 2 after %d", st.Units, st.Compacted, 2*(n-2))
		}
	})

	t.Run("degenerate-seed-tail", func(t *testing.T) {
		// Seven turning units, then [7, 7]: the seed's open chunk is chunk 0,
		// full, so the first live unit seals it and opens chunk 1.
		var us []units.UPoint
		for i := 0; i < 7; i++ {
			s := temporal.Instant(i)
			u, err := units.UPointBetween(temporal.RightHalfOpen(s, s+1), geom.Pt(float64(i), float64(i%2)), geom.Pt(float64(i+1), float64((i+1)%2)))
			if err != nil {
				t.Fatal(err)
			}
			us = append(us, u)
		}
		moves := append(us, units.StaticUPoint(temporal.Closed(7, 7), geom.Pt(7, 1)))
		rests := []units.UPoint{units.StaticUPoint(temporal.Closed(5, 5), geom.Pt(1, 1))}
		p := open(t, Config{
			SeedIDs:   []string{"moves", "rests"},
			Seeds:     []moving.MPoint{{M: mapping.FromOrdered(moves)}, {M: mapping.FromOrdered(rests)}},
			FlushSize: 1 << 20, MaxAge: time.Hour,
		})
		check(t, p)
		for ts := 8.0; ts < 12; ts++ {
			drain(t, p, []Observation{
				{ObjectID: "moves", T: ts, X: 2*ts - 7, Y: 1}, // chained left-open, then merged
				{ObjectID: "rests", T: ts, X: 1, Y: 1},        // merged into [5, 5]
			})
		}
		if st := p.Stats(); st.Units != 8+1+1 || st.Compacted != 3+4 {
			t.Fatalf("left %d units after %d merges, want 10 after 7", st.Units, st.Compacted)
		}
	})

	t.Run("deferred-publish", func(t *testing.T) {
		// Armed before Open: the opening publish, which has nothing to
		// publish, must not spend a trip, so the first three drains defer.
		in := fault.New(1)
		in.Set("epoch.publish", fault.Spec{Mode: fault.ModeError, Times: 3})
		fault.Arm(in)
		defer fault.Arm(nil)
		m := obs.New(0)
		p := open(t, Config{FlushSize: 1 << 20, MaxAge: time.Hour, Metrics: m})
		stream := toObservations(workload.New(4).ObservationStream("d", 40, 30, 0, 1, 8))
		for lo := 0; lo < len(stream); lo += 40 {
			drain(t, p, stream[lo:lo+40])
		}
		if st := p.Stats(); st.Epoch != 1+31-3 {
			t.Fatalf("epoch %d after the opening one and 31 drains, 3 of them deferred, want %d", st.Epoch, 1+31-3)
		}
		if n := m.Snapshot().Ingest.Causes["epoch_publish_deferred"]; n != 3 {
			t.Fatalf("epoch_publish_deferred = %d, want 3", n)
		}
	})

	t.Run("reopened", func(t *testing.T) {
		log := storage.NewPageStore()
		stream := toObservations(workload.New(5).ObservationStream("r", 30, 40, 0, 1, 8))
		half := 18 * 30 // two batches past the checkpoint of every fourth
		cfg := Config{Log: log, FlushSize: 1 << 20, MaxAge: time.Hour, CheckpointPages: 4}
		p := open(t, cfg)
		for lo := 0; lo < half; lo += 30 {
			drain(t, p, stream[lo:lo+30])
		}
		if p.Stats().WALCheckpoints == 0 {
			t.Fatal("no checkpoint before the reopen: recovery would not go through newStore")
		}
		p.Close()
		r := open(t, cfg)
		if ep := r.Stats().Epoch; ep != 2 {
			t.Fatalf("reopened at epoch %d, want 2: the opening one and the replayed batches", ep)
		}
		check(t, r)
		for lo := half; lo < len(stream); lo += 30 {
			drain(t, r, stream[lo:lo+30])
		}
	})
}
