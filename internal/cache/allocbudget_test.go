//go:build !race

package cache

import (
	"testing"

	"movingdb/internal/allocbudget"
)

// TestAllocBudgets: a warm Get (Key.Hash, shard lookup, LRU touch)
// allocates nothing.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		allocbudget.Budget{Name: "BenchmarkMemoryGet", Bench: BenchmarkMemoryGet},
	)
}
