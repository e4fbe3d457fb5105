//go:build !race

package temporal

import (
	"testing"

	"movingdb/internal/allocbudget"
)

// TestAllocBudgets: the refinement sweep (sweep.next) allocates nothing.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		allocbudget.Budget{Name: "BenchmarkSweep", Bench: BenchmarkSweep},
	)
}
