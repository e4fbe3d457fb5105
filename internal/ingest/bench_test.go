package ingest

import (
	"fmt"
	"testing"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

// BenchmarkAppendThroughput measures the full write path — validation,
// WAL append, batching, unit construction, compaction, delta-index
// insert — in observations per second.
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

// benchDeltaPipeline builds a store with the given fraction of its
// index entries still in the delta buffer (the rest merged into the
// base tree).
func benchDeltaPipeline(b *testing.B, total int, deltaFrac float64) *Pipeline {
	b.Helper()
	g := workload.New(3)
	const objects = 100
	steps := total / objects
	stream := toObservations(g.ObservationStream("d", objects, steps, 0, 1, 50))
	split := int(float64(len(stream)) * (1 - deltaFrac))
	p, err := Open(Config{FlushSize: 1, MaxAge: time.Hour, MaxQueued: 1 << 30, MergeThreshold: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	ingestAll := func(obsns []Observation) {
		for lo := 0; lo < len(obsns); lo += 512 {
			if _, err := p.Ingest(obsns[lo:min(lo+512, len(obsns))]); err != nil {
				b.Fatal(err)
			}
		}
		p.Flush()
	}
	ingestAll(stream[:split])
	p.store.idx.ForceMerge() // everything so far into the base tree
	ingestAll(stream[split:])
	return p
}

// benchEpoch pins one mostly-merged epoch for the read-path benchmarks.
func benchEpoch(b *testing.B) *Epoch {
	b.Helper()
	p := benchDeltaPipeline(b, 20000, 0.10)
	b.Cleanup(p.Close)
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
// one instant — the /v1/objects?t= read path under the allocation
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

// BenchmarkWindowDeltaFraction measures window-query latency as the
// delta buffer grows relative to the base tree: 0% (fully merged), 10%
// and 50% of entries unmerged. The spread is the price of deferring
// rebuilds, and what the merge threshold trades against append cost.
func BenchmarkWindowDeltaFraction(b *testing.B) {
	for _, frac := range []float64{0, 0.10, 0.50} {
		b.Run(fmt.Sprintf("delta=%d%%", int(frac*100)), func(b *testing.B) {
			p := benchDeltaPipeline(b, 20000, frac)
			defer p.Close()
			base, delta, _ := p.store.IndexStats()
			b.Logf("base=%d delta=%d", base, delta)
			rects := make([]geom.Rect, 32)
			for i := range rects {
				x := float64((i * 131) % 900)
				y := float64((i * 57) % 900)
				rects[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + 100, MaxY: y + 100}
			}
			iv := temporal.Closed(0, 50)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = p.Epoch().Window(rects[i%len(rects)], iv)
			}
		})
	}
}
