//go:build !race

package live

import (
	"testing"

	"movingdb/internal/allocbudget"
	"movingdb/internal/geom"
	"movingdb/internal/ingest"
)

// BenchmarkRegistryNotify is the flush path's share of a publish: stamp
// it, queue it, wake the notifier. The registry is built without its
// notifier goroutine and the loop plays the drain (pop, take the wake
// token), so the figure is Notify's alone and exact.
func BenchmarkRegistryNotify(b *testing.B) {
	r := &Registry{cfg: Config{}.withDefaults(), wake: make(chan struct{}, 1)}
	dirty := []ingest.DirtyObject{{ID: "veh0001", Rect: geom.Rect{MaxX: 1, MaxY: 1}}}
	r.Notify(nil, dirty) // sizes the queue
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.queue = r.queue[:0]
		<-r.wake
		r.Notify(nil, dirty)
	}
}

// TestAllocBudgets: Notify runs on the ingest flush path and allocates
// nothing while the queue has room (coalescing, the overflow path,
// merges two dirty sets by design).
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		allocbudget.Budget{Name: "BenchmarkRegistryNotify", Bench: BenchmarkRegistryNotify},
	)
}
