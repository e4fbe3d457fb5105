//go:build !race && !debugcheck

package db

import (
	"testing"

	"movingdb/internal/allocbudget"
)

// TestAllocBudgets: a join on a filtered predicate allocates nothing for
// the pairs the filter excludes. The fused inside walk allocates nothing
// for the rest either, so BenchmarkJoinInside is the output rows and the
// boxing of the other conjunct's values; the distance chain allocates
// what carries the operator results between calls (the kernels' unit
// arrays and their boxing into the executor's value type). Neither pays
// per-row typing, overload search or argument slices, which the query
// binds once. The relations' summaries are built by the first query and
// are not in the per-query figure. (Not run under debugcheck, whose
// guards evaluate the composed expression for every pair as well.)
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		allocbudget.Budget{Name: "BenchmarkJoinInside", Bench: BenchmarkJoinInside, MaxAllocs: 135, MaxBytes: 10000},
		allocbudget.Budget{Name: "BenchmarkJoinDistance", Bench: BenchmarkJoinDistance, MaxAllocs: 254, MaxBytes: 26700},
	)
}
