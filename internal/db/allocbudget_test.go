//go:build !race

package db

import (
	"testing"

	"movingdb/internal/allocbudget"
)

// TestAllocBudgets: a join whose predicate is the inside kernel
// allocates per candidate row only what carries the operator results
// between calls (the kernel's unit array and its boxing into the
// executor's value type) plus the output rows — no per-row typing,
// overload search or argument slices, which the query binds once.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		allocbudget.Budget{Name: "BenchmarkJoinInside", Bench: BenchmarkJoinInside, MaxAllocs: 338, MaxBytes: 20400},
	)
}
