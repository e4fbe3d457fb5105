//go:build !race

package index

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
		{"BenchmarkSnapshotNearest", BenchmarkSnapshotNearest, 11, 157500},
		{"BenchmarkSnapshotSearch/ladder", func(b *testing.B) { benchSnapshotSearch(b, ladderSnapshot()) }, 0, 0},
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
