//go:build !race

package db

import "testing"

// TestAllocBudgets is the runtime half of the hot-path allocation
// contract: a join whose predicate is the inside kernel allocates per
// candidate row only what carries the operator results between calls
// (the kernel's unit array and its boxing into the executor's value
// type) plus the output rows — no per-row typing, overload search or
// argument slices, which the query binds once. The ceilings are the
// seeded figure for allocs/op (exact) and ~25% over it for B/op. The
// race detector changes allocation counts, hence the build constraint.
func TestAllocBudgets(t *testing.T) {
	const maxAllocs, maxBytes = 338, 20400
	r := testing.Benchmark(BenchmarkJoinInside)
	if r.N == 0 {
		t.Fatal("BenchmarkJoinInside did not run")
	}
	if r.AllocsPerOp() > maxAllocs || r.AllocedBytesPerOp() > maxBytes {
		t.Errorf("BenchmarkJoinInside: %d allocs/op, %d B/op; budget %d allocs/op, %d B/op",
			r.AllocsPerOp(), r.AllocedBytesPerOp(), maxAllocs, maxBytes)
	}
}
