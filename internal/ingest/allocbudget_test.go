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
		// grown by doubling, the batch's index entries and the tail they
		// land in.
		allocbudget.Budget{Name: "BenchmarkStoreApply", Bench: BenchmarkStoreApply, MaxAllocs: 560, MaxBytes: 217700},
		// Per object: its first unit array, its first starts column and
		// its re-sealed view (3 × 570); per tick: the WAL record, the
		// pending run, one entry slice, one fold, one epoch. Reads 1729 to
		// 1730 with the hash-seed jitter of the dirty map's overflow
		// buckets; the ceiling leaves under 5 % over that.
		allocbudget.Budget{Name: "BenchmarkPipelineTick", Bench: BenchmarkPipelineTick, MaxAllocs: 1745, MaxBytes: 348000},
		allocbudget.Budget{Name: "BenchmarkEpochWindow", Bench: BenchmarkEpochWindow, MaxAllocs: 9, MaxBytes: 2330},
		allocbudget.Budget{Name: "BenchmarkEpochAtInstant", Bench: BenchmarkEpochAtInstant, MaxAllocs: 1, MaxBytes: 4320},
		allocbudget.Budget{Name: "BenchmarkEpochNearest", Bench: BenchmarkEpochNearest, MaxAllocs: 6, MaxBytes: 4525},
		allocbudget.Budget{Name: "BenchmarkEpochSummaries", Bench: BenchmarkEpochSummaries, MaxAllocs: 1, MaxBytes: 5120},
	)
}
