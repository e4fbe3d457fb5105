//go:build !race

package index

import (
	"testing"

	"movingdb/internal/allocbudget"
)

// TestAllocBudgets: a ladder search appends into the caller's buffer and
// allocates nothing; a k-NN query allocates its arena, heap and dedup
// map once; a bulk load allocates the tree, its node array and one
// buffer holding the sort keys and the radix scratch.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		allocbudget.Budget{Name: "BenchmarkSnapshotNearest", Bench: BenchmarkSnapshotNearest, MaxAllocs: 7, MaxBytes: 28000},
		allocbudget.Budget{Name: "BenchmarkBuild/n=4096", Bench: func(b *testing.B) { benchBuild(b, 4096) }, MaxAllocs: 3, MaxBytes: 107600},
		allocbudget.Budget{Name: "BenchmarkSnapshotSearch/ladder", Bench: func(b *testing.B) { benchSnapshotSearch(b, ladderSnapshot()) }},
	)
}
