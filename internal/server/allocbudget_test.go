//go:build !race

package server

import (
	"testing"

	"movingdb/internal/allocbudget"
)

// TestAllocBudgets covers the hand-written wire path: request decode
// (parseParams, scanObservations), the cache-hit chain (etagFor), the
// four body encoders and the SSE frame writer.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		allocbudget.Budget{Name: "BenchmarkSSEEventFrames", Bench: BenchmarkSSEEventFrames},
		// A cache hit through the whole handler chain: the status writer,
		// the ETag string and the slice holding it, all net/http-shaped
		// (27 allocs/op before the hit path stopped rendering strings).
		allocbudget.Budget{Name: "BenchmarkCacheHitWindow", Bench: BenchmarkCacheHitWindow, MaxAllocs: 3, MaxBytes: 110},
		allocbudget.Budget{Name: "BenchmarkCacheHitAtInstant", Bench: BenchmarkCacheHitAtInstant, MaxAllocs: 3, MaxBytes: 110},
		allocbudget.Budget{Name: "BenchmarkCacheHitNearby", Bench: BenchmarkCacheHitNearby, MaxAllocs: 3, MaxBytes: 110},
		// n + 1 for n = 570 observations: one id string each, the batch.
		allocbudget.Budget{Name: "BenchmarkIngestDecode570", Bench: BenchmarkIngestDecode570, MaxAllocs: 571, MaxBytes: 36420},
		// The exact-size copy the cache retains (a 56 KiB body).
		allocbudget.Budget{Name: "BenchmarkEncodeAtInstant1000", Bench: BenchmarkEncodeAtInstant1000, MaxAllocs: 1, MaxBytes: 72 << 10},
		allocbudget.Budget{Name: "BenchmarkEncodePagedBodies", Bench: BenchmarkEncodePagedBodies},
		allocbudget.Budget{Name: "BenchmarkAppendJSONFloat/writer", Bench: benchAppendJSONFloat},
		// A /v1/atinstant miss's compute: with warm position and body
		// buffers the unit search and the encoder allocate nothing.
		allocbudget.Budget{Name: "BenchmarkAtInstantBody/n=1000", Bench: benchAtInstantBody},
	)
}
