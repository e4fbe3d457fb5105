//go:build !race

package cache

import (
	"testing"

	"movingdb/internal/allocbudget"
)

// TestAllocBudgets: a warm Get (Key.Hash, shard lookup, LRU touch)
// allocates nothing, and a Put that evicts allocates only its entry.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		allocbudget.Budget{Name: "BenchmarkMemoryGet", Bench: BenchmarkMemoryGet},
		allocbudget.Budget{Name: "BenchmarkMemoryPut", Bench: BenchmarkMemoryPut, MaxAllocs: 1, MaxBytes: 160},
	)
}
