//go:build !race

package index

import (
	"testing"

	"movingdb/internal/allocbudget"
)

// TestAllocBudgets: a ladder search appends into the caller's buffer and
// allocates nothing; a k-NN query allocates its arena, heap and dedup
// map once.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		allocbudget.Budget{Name: "BenchmarkSnapshotNearest", Bench: BenchmarkSnapshotNearest, MaxAllocs: 7, MaxBytes: 28000},
		allocbudget.Budget{Name: "BenchmarkSnapshotSearch/ladder", Bench: func(b *testing.B) { benchSnapshotSearch(b, ladderSnapshot()) }},
	)
}
