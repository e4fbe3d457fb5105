package index

import (
	"fmt"
	"math/rand"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/workload"
)

// fleetCubes is n unit cubes in ingest order: the segments between
// consecutive fixes of 570 trackers (bench/'s fleet size), round-robin
// across objects and ascending in time — what Store.Apply hands the
// index, so a ladder built from it is a stack of time slabs.
func fleetCubes(n int) []Entry {
	const objects = 570
	stream := workload.New(5).ObservationStream("f", objects, n/objects+1, 0, 1, 8)
	out := make([]Entry, 0, n)
	for i := objects; len(out) < n; i++ {
		p, o := stream[i-objects], stream[i]
		out = append(out, Entry{
			Cube: geom.Cube{
				Rect: geom.Rect{MinX: min(p.P.X, o.P.X), MinY: min(p.P.Y, o.P.Y), MaxX: max(p.P.X, o.P.X), MaxY: max(p.P.Y, o.P.Y)},
				MinT: float64(p.T), MaxT: float64(o.T),
			},
			ID: int64(len(out)),
		})
	}
	return out
}

// BenchmarkBuild measures one STR bulk load at the three sizes the
// served stack meets: one fleet tick, the old merge threshold, and the
// fleet_mixed episode's final index. The shape to watch is ns/entry
// staying near flat in n: the three key sorts are radix passes, and what
// grows is the cache misses of gathering 56-byte entries by key.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{570, 4096, 78000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchBuild(b, n) })
	}
}

func benchBuild(b *testing.B, n int) {
	src := fleetCubes(n)
	work := make([]Entry, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src) // Build reorders its argument in place
		Build(work)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
}

// BenchmarkFold measures the amortised cost of an entry, folds
// included, feeding n entries 64 at a time — the sealed chunks the
// ingest store folds at once (a fleet tick's drain is BenchmarkBuild's).
// The ladder's shape: ns/entry grows no faster than log n (the
// base+delta design it replaced was linear).
func BenchmarkFold(b *testing.B) {
	for _, n := range []int{1e3, 1e4, 1e5} {
		b.Run(fmt.Sprintf("n=%.0e", float64(n)), func(b *testing.B) {
			src := fleetCubes(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				foldBy(src, 64)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
		})
	}
}

// foldBy folds es into an empty ladder n entries at a time.
func foldBy(es []Entry, n int) Snapshot {
	var s Snapshot
	for lo := 0; lo < len(es); lo += n {
		s, _ = s.Fold(es[lo:min(lo+n, len(es))])
	}
	return s
}

// benchSnapshotSearch runs the window mix of bench/'s delta sweep
// (100×100 windows over the first 50 time units) with a reused out.
func benchSnapshotSearch(b *testing.B, snap Snapshot) {
	var buf []int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := float64((i*131)%900), float64((i*57)%900)
		buf, _ = snap.Search(geom.Cube{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 100, MaxY: y + 100}, MinT: 0, MaxT: 50}, buf[:0])
	}
}

// ladderSnapshot is 20 000 fleet cubes folded 64 at a time: the ladder
// ingest leaves behind, several rungs.
func ladderSnapshot() Snapshot { return foldBy(fleetCubes(20000), 64) }

// BenchmarkSnapshotSearch compares the union search over a full ladder
// with the same entries bulk-loaded as one rung: the price of searching
// O(log n) trees instead of one.
func BenchmarkSnapshotSearch(b *testing.B) {
	b.Run("rungs=1", func(b *testing.B) {
		benchSnapshotSearch(b, Snapshot{}.WithRung(Build(fleetCubes(20000))))
	})
	b.Run("ladder", func(b *testing.B) { benchSnapshotSearch(b, ladderSnapshot()) })
}

// BenchmarkSnapshotNearest measures the best-first k-NN traversal over
// a two-rung snapshot — the index half of the /v1/nearby path,
// pinned by an allocation budget (TestAllocBudgets).
func BenchmarkSnapshotNearest(b *testing.B) {
	f := buildKNNFixture(rand.New(rand.NewSource(11)), 5000, 0, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qx := float64((i * 137) % 1000)
		qy := float64((i * 89) % 1000)
		_, _ = f.snap.Nearest(qx, qy, 50, 10, -1, f.refine(qx, qy))
	}
}
