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
		// 57 objects registered, the slot table grown with them and
		// their unit arrays and starts columns grown by doubling; the
		// ≈ 57 chunks the batch seals wait in the store's buffer,
		// allocated with the store, and fold nothing.
		allocbudget.Budget{Name: "BenchmarkStoreApply", Bench: BenchmarkStoreApply, MaxAllocs: 551, MaxBytes: 120500},
		// Per object: its first unit array, its first starts column and
		// its re-sealed view (3 × 570); per tick: the WAL record, the
		// pending run, the dirty list, the extra rung (the tick seals no
		// chunk, so it holds the open chunks alone and nothing folds) and
		// one epoch: 1727. The input stream is built before the timer
		// starts, so allocs/op is the tick's alone.
		allocbudget.Budget{Name: "BenchmarkPipelineTick", Bench: BenchmarkPipelineTick, MaxAllocs: 1727, MaxBytes: 318100},
		allocbudget.Budget{Name: "BenchmarkEpochWindow", Bench: BenchmarkEpochWindow, MaxAllocs: 7, MaxBytes: 875},
		allocbudget.Budget{Name: "BenchmarkEpochAtInstant", Bench: BenchmarkEpochAtInstant, MaxAllocs: 1, MaxBytes: 4320},
		allocbudget.Budget{Name: "BenchmarkEpochNearest", Bench: BenchmarkEpochNearest, MaxAllocs: 6, MaxBytes: 3460},
		allocbudget.Budget{Name: "BenchmarkEpochSummaries", Bench: BenchmarkEpochSummaries, MaxAllocs: 1, MaxBytes: 5120},
	)
}
