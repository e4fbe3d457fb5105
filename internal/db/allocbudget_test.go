//go:build !race && !debugcheck

package db

import (
	"testing"

	"movingdb/internal/allocbudget"
)

// TestAllocBudgets: a join on a filtered predicate allocates nothing for
// the pairs the filter excludes, and for the rest only what carries the
// operator results between calls (the kernels' unit arrays and their
// boxing into the executor's value type) plus the output rows — no
// per-row typing, overload search or argument slices, which the query
// binds once. The relations' summaries are built by the first query and
// are not in the per-query figure. (Not run under debugcheck, whose
// guards run the kernels on the skipped pairs as well.)
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		allocbudget.Budget{Name: "BenchmarkJoinInside", Bench: BenchmarkJoinInside, MaxAllocs: 250, MaxBytes: 17600},
		allocbudget.Budget{Name: "BenchmarkJoinDistance", Bench: BenchmarkJoinDistance, MaxAllocs: 254, MaxBytes: 26700},
	)
}
