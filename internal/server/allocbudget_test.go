//go:build !race

package server

import "testing"

// TestAllocBudgets is the runtime half of the hot-path allocation
// contract (molint's alloc-hot check is the static half): each budgeted
// benchmark must stay at or below its allocs/op ceiling (exact — the
// workloads are seeded) and its B/op ceiling (~25% over the tuned
// figure, for map and heap growth jitter). The race detector changes
// allocation counts, hence the build constraint.
func TestAllocBudgets(t *testing.T) {
	for _, c := range []struct {
		name                string
		bench               func(*testing.B)
		maxAllocs, maxBytes int64
	}{
		{"BenchmarkSSEEventFrames", BenchmarkSSEEventFrames, 0, 0},
		// A cache hit through the whole handler chain: the status writer,
		// the ETag string and the slice holding it (27 allocs/op before
		// the hit path stopped rendering strings).
		{"BenchmarkCacheHitWindow", BenchmarkCacheHitWindow, 6, 400},
		{"BenchmarkCacheHitAtInstant", BenchmarkCacheHitAtInstant, 6, 400},
		{"BenchmarkCacheHitNearby", BenchmarkCacheHitNearby, 6, 400},
		// n + 4 for n = 570 observations: one id string each, the batch.
		{"BenchmarkIngestDecode570", BenchmarkIngestDecode570, 574, 40 << 10},
		// The exact-size copy the cache retains (a 56 KiB body).
		{"BenchmarkEncodeAtInstant1000", BenchmarkEncodeAtInstant1000, 2, 72 << 10},
	} {
		r := testing.Benchmark(c.bench)
		if r.N == 0 {
			t.Errorf("%s did not run", c.name)
			continue
		}
		if r.AllocsPerOp() > c.maxAllocs || r.AllocedBytesPerOp() > c.maxBytes {
			t.Errorf("%s: %d allocs/op, %d B/op; budget %d allocs/op, %d B/op",
				c.name, r.AllocsPerOp(), r.AllocedBytesPerOp(), c.maxAllocs, c.maxBytes)
		}
	}
}
