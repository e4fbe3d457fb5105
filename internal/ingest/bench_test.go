package ingest

import (
	"fmt"
	"testing"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/obs"
	"movingdb/internal/storage"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

// BenchmarkAppendThroughput measures the full write path — validation,
// WAL append, batching, unit construction, compaction, index insert
// and folds — in observations per second.
func BenchmarkAppendThroughput(b *testing.B) {
	for _, batchSize := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("batch=%d", batchSize), func(b *testing.B) {
			p, err := Open(Config{FlushSize: 64, MaxAge: time.Hour, MaxQueued: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			g := workload.New(1)
			const objects = 64
			stream := toObservations(g.ObservationStream("b", objects, (b.N+batchSize)/objects+2, 0, 1, 5))
			b.ResetTimer()
			n := 0
			for n < b.N {
				hi := min(n+batchSize, len(stream))
				if _, err := p.Ingest(stream[n:hi]); err != nil {
					b.Fatal(err)
				}
				n = hi
			}
			p.Flush()
			b.StopTimer()
			b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "obs/s")
		})
	}
}

// BenchmarkStoreApply measures one flush's worth of Store.Apply — unit
// construction, compaction and chunk sealing, without the WAL and
// the pending run around it. Every iteration applies the same 570 observations
// (one fleet_mixed tick) to a fresh store, so allocs/op is exact.
func BenchmarkStoreApply(b *testing.B) {
	batch := toObservations(workload.New(1).ObservationStream("a", 57, 10, 0, 1, 5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := newStore(&storage.History{}, obs.New(0))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if applied, _, _ := s.Apply(batch); applied != len(batch) {
			b.Fatalf("applied %d of %d", applied, len(batch))
		}
	}
}

// BenchmarkPipelineTick measures one fleet_mixed write tick through the
// whole pipeline: 570 trackers, one observation each, Ingest (WAL append
// and the pending run) then Flush (one drain: apply, index fold, epoch
// publish). Every iteration runs the same second tick on a fresh
// pipeline whose first, untimed tick registered the fleet, so allocs/op
// is exact — the budget that keeps per-object slices and locks from
// creeping back into the drain.
func BenchmarkPipelineTick(b *testing.B) {
	const objects = 570
	stream := toObservations(workload.New(1).ObservationStream("t", objects, 1, 0, 1, 5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Ingest(stream[:objects]); err != nil {
			b.Fatal(err)
		}
		p.Flush()
		b.StartTimer()
		if _, err := p.Ingest(stream[objects:]); err != nil {
			b.Fatal(err)
		}
		p.Flush()
		b.StopTimer()
		if s := p.Stats(); s.Units != objects || s.Epoch != 3 {
			b.Fatalf("tick left %d units at epoch %d, want %d at 3", s.Units, s.Epoch, objects)
		}
		p.Close()
		b.StartTimer()
	}
}

// BenchmarkIngestEpisode measures one whole fleet_mixed write episode:
// 570 trackers at speed 8 for 201 ticks, each tick one Ingest and one
// Flush on a pipeline opened fresh for the iteration. Unlike
// BenchmarkPipelineTick, which starts every tick on an empty ladder, it
// pays every fold the episode's sealed chunks cause. It reports the mean
// tick, the entries the final epoch's index holds (the ladder's sealed
// chunks plus one open chunk per object) and the folds that merged rungs.
func BenchmarkIngestEpisode(b *testing.B) {
	stream := episodeStream()
	var st Stats
	var entries int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ingestTicks(b, p, stream)
		b.StopTimer()
		st, entries = p.Stats(), p.Epoch().idx.Len()
		p.Close()
		b.StartTimer()
	}
	if bound := st.Units/chunkUnits + episodeObjects; entries > bound {
		b.Fatalf("the index holds %d entries for %d units of %d objects, over units/%d + objects = %d", entries, st.Units, episodeObjects, chunkUnits, bound)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*episodeTicks), "us/tick")
	b.ReportMetric(float64(entries), "entries")
	b.ReportMetric(float64(st.IndexMerges), "merging-folds")
}

// episodeObjects trackers for episodeTicks ticks: the shape of bench/'s
// fleet_mixed write stream.
const episodeObjects, episodeTicks = 570, 201

// episodeStream is fleet_mixed's stream: the generator, seed and shape
// bench/ uses, trackers at speed 8.
func episodeStream() []Observation {
	return toObservations(workload.New(570).ObservationStream("veh", episodeObjects, episodeTicks-1, 0, 1, 8))
}

// ingestTicks feeds stream one tick of episodeObjects observations at a
// time, each one Ingest and one Flush.
func ingestTicks(tb testing.TB, p *Pipeline, stream []Observation) {
	for lo := 0; lo < len(stream); lo += episodeObjects {
		if _, err := p.Ingest(stream[lo : lo+episodeObjects]); err != nil {
			tb.Fatal(err)
		}
		p.Flush()
	}
}

// benchEpoch pins one epoch for the read-path benchmarks: 20 000
// observations of 100 objects fed through the pipeline, so the index is
// the ladder ingest leaves behind (several rungs, and sealed chunks
// waiting for a fold in the extra rung beside the open ones).
func benchEpoch(b *testing.B) *Epoch {
	b.Helper()
	p, err := Open(Config{FlushSize: 1, MaxAge: time.Hour, MaxQueued: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	stream := toObservations(workload.New(3).ObservationStream("d", 100, 200, 0, 1, 50))
	for lo := 0; lo < len(stream); lo += 512 {
		if _, err := p.Ingest(stream[lo:min(lo+512, len(stream))]); err != nil {
			b.Fatal(err)
		}
	}
	p.Flush()
	return p.Epoch()
}

// BenchmarkEpochWindow measures the lock-free window query against a
// pinned epoch — the /v1/window read path under the allocation budget
// (TestAllocBudgets).
func BenchmarkEpochWindow(b *testing.B) {
	ep := benchEpoch(b)
	rects := make([]geom.Rect, 32)
	for i := range rects {
		x := float64((i * 131) % 900)
		y := float64((i * 57) % 900)
		rects[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + 100, MaxY: y + 100}
	}
	iv := temporal.Closed(0, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ep.Window(rects[i%len(rects)], iv)
	}
}

// BenchmarkEpochAtInstant measures the projection of every object onto
// one instant — the /v1/atinstant read path under the allocation
// budget.
func BenchmarkEpochAtInstant(b *testing.B) {
	ep := benchEpoch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ep.AtInstant(temporal.Instant(float64(i%50) + 0.5))
	}
}

// BenchmarkEpochNearest measures the k-NN read path (/v1/nearby)
// end-to-end over the epoch: best-first index traversal plus sealed-view
// refinement, under the allocation budget.
func BenchmarkEpochNearest(b *testing.B) {
	ep := benchEpoch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64((i * 137) % 1000)
		y := float64((i * 89) % 1000)
		_ = ep.Nearest(x, y, 25, 10, -1)
	}
}

// BenchmarkEpochSummaries measures the /v1/objects listing over the
// epoch: one result slice, no per-object allocation.
func BenchmarkEpochSummaries(b *testing.B) {
	ep := benchEpoch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ep.Summaries()
	}
}

// fleetStore is a fleet-shaped store for the checkpoint codec: 570
// objects and 150 steps, which compaction leaves at ≈ 100 units an
// object, ≈ 2.8 MB encoded.
func fleetStore(tb testing.TB) *Store {
	tb.Helper()
	s, err := newStore(&storage.History{}, obs.New(0))
	if err != nil {
		tb.Fatal(err)
	}
	s.Apply(toObservations(workload.New(1).ObservationStream("f", 570, 150, 0, 1, 5)))
	return s
}

// BenchmarkCheckpointEncode measures the payload a checkpoint writes
// under the pipeline lock: encodeState over the whole store.
func BenchmarkCheckpointEncode(b *testing.B) {
	s := fleetStore(b)
	b.SetBytes(int64(len(encodeState(s))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = encodeState(s)
	}
}

// BenchmarkCheckpointDecode measures what the recovery scan does with
// that payload: storage.DecodeHistory, every check included.
func BenchmarkCheckpointDecode(b *testing.B) {
	payload := encodeState(fleetStore(b))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := storage.DecodeHistory(payload); err != nil {
			b.Fatal(err)
		}
	}
}
