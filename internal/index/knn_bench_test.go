package index

import (
	"math/rand"
	"testing"
)

// BenchmarkSnapshotNearest measures the best-first k-NN traversal over
// a mixed base+delta snapshot — the index half of the /v1/nearby path,
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
