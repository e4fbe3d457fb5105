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
		// 57 objects registered, their unit arrays grown by doubling, the
		// batch's index entries and the tail they land in.
		allocbudget.Budget{Name: "BenchmarkStoreApply", Bench: BenchmarkStoreApply, MaxAllocs: 325, MaxBytes: 206700},
		// Per object: its first unit array and its re-sealed view
		// (2 × 570); per tick: the WAL record, the pending run, one entry
		// slice, one fold, one epoch. Reads 1159 since the per-object
		// buffers (2 × 570 more) became one pending run; the ceiling is
		// still the buffered design's 2311 to 2313 plus the hash-seed
		// jitter of the dirty map's overflow buckets.
		allocbudget.Budget{Name: "BenchmarkPipelineTick", Bench: BenchmarkPipelineTick, MaxAllocs: 2320, MaxBytes: 535400},
		allocbudget.Budget{Name: "BenchmarkEpochWindow", Bench: BenchmarkEpochWindow, MaxAllocs: 9, MaxBytes: 2330},
		allocbudget.Budget{Name: "BenchmarkEpochAtInstant", Bench: BenchmarkEpochAtInstant, MaxAllocs: 1, MaxBytes: 4320},
		allocbudget.Budget{Name: "BenchmarkEpochNearest", Bench: BenchmarkEpochNearest, MaxAllocs: 6, MaxBytes: 4525},
		allocbudget.Budget{Name: "BenchmarkEpochSummaries", Bench: BenchmarkEpochSummaries, MaxAllocs: 1, MaxBytes: 5120},
	)
}
