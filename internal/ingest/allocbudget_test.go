//go:build !race

package ingest

import (
	"testing"

	"movingdb/internal/allocbudget"
)

// TestAllocBudgets covers the write path — Store.Apply alone and one
// whole tick through admission, store, index and publish — and the four
// lock-free epoch reads behind /v1/window, /v1/atinstant, /v1/nearby
// and /v1/objects.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		// 57 objects registered, their unit arrays and starts columns
		// grown by doubling, one slice for the ≈ 57 chunks the batch
		// seals and the index tail they land in.
		allocbudget.Budget{Name: "BenchmarkStoreApply", Bench: BenchmarkStoreApply, MaxAllocs: 556, MaxBytes: 120500},
		// Per object: its first unit array, its first starts column and
		// its re-sealed view (3 × 570); per tick: the WAL record, the
		// pending run, one entry slice (the tick seals no chunk, so no
		// fold), the open chunks' rung and one epoch. Reads 1729 to 1730
		// with the hash-seed jitter of the dirty map's overflow buckets;
		// the ceiling leaves under 5 % over that.
		allocbudget.Budget{Name: "BenchmarkPipelineTick", Bench: BenchmarkPipelineTick, MaxAllocs: 1745, MaxBytes: 318100},
		allocbudget.Budget{Name: "BenchmarkEpochWindow", Bench: BenchmarkEpochWindow, MaxAllocs: 7, MaxBytes: 875},
		allocbudget.Budget{Name: "BenchmarkEpochAtInstant", Bench: BenchmarkEpochAtInstant, MaxAllocs: 1, MaxBytes: 4320},
		allocbudget.Budget{Name: "BenchmarkEpochNearest", Bench: BenchmarkEpochNearest, MaxAllocs: 6, MaxBytes: 3460},
		allocbudget.Budget{Name: "BenchmarkEpochSummaries", Bench: BenchmarkEpochSummaries, MaxAllocs: 1, MaxBytes: 5120},
	)
}
