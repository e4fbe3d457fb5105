//go:build !race

package moving_test

import (
	"testing"

	"movingdb/internal/allocbudget"
)

// TestAllocBudgets: the lifted kernels allocate their result's unit
// array and nothing else — the refinement partition, the region's moving
// segments, cubes, roots and crossings are all walked or held by value.
// Inside (InsideCtx over units.UPointInsideURegion) grows its result by
// append (a flight meets a storm in one to four boolean units); Distance
// sizes its result once, AtMin allocates the second array. The fused
// walks read stored summaries and the unit arrays; the inside walk's
// kernel pieces stay in a stack buffer and the distance walk's unit
// distances are values: nothing. The area extremum folds each unit's
// area quadratic as it is produced and builds no moving real: nothing.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		allocbudget.Budget{Name: "BenchmarkInside", Bench: BenchmarkInside, MaxAllocs: 1, MaxBytes: 128},
		allocbudget.Budget{Name: "BenchmarkDistanceAtMinInitial", Bench: BenchmarkDistanceAtMinInitial, MaxAllocs: 2, MaxBytes: 640},
		allocbudget.Budget{Name: "BenchmarkSometimesInside", Bench: BenchmarkSometimesInside, MaxAllocs: 0, MaxBytes: 0},
		allocbudget.Budget{Name: "BenchmarkComesWithin", Bench: BenchmarkComesWithin, MaxAllocs: 0, MaxBytes: 0},
		allocbudget.Budget{Name: "BenchmarkAreaMax", Bench: BenchmarkAreaMax, MaxAllocs: 0, MaxBytes: 0},
	)
}
