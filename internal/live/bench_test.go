package live

import (
	"fmt"
	"testing"
	"time"

	"movingdb/internal/ingest"
	"movingdb/internal/workload"
)

// BenchmarkRegistryDrain measures the notifier's work for one fleet
// publish: the second tick of 570 trackers, taken from a real
// pipeline's OnPublish, drained against a fleet-like subscription mix
// (workload.Subscriptions) seeded at the first tick. The registry runs
// without its notifier goroutine and every iteration queues the same
// publish and drains it, so the figure is the filter pass plus the
// candidates' evaluation; after the first iteration every state already
// matches, so the default-sized rings stay bounded.
func BenchmarkRegistryDrain(b *testing.B) {
	const objects = 570
	var ep *ingest.Epoch
	var dirty []ingest.DirtyObject
	p, err := ingest.Open(ingest.Config{FlushSize: 1 << 20, MaxAge: time.Hour,
		OnPublish: func(e *ingest.Epoch, d []ingest.DirtyObject) { ep, dirty = e, d }})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	stream := workload.New(570).ObservationStream("veh", objects, 1, 0, 1, 8)
	ids := make([]string, objects)
	batch := make([]ingest.Observation, len(stream))
	for i, o := range stream {
		batch[i] = ingest.Observation{ObjectID: o.ID, T: float64(o.T), X: o.P.X, Y: o.P.Y}
		if i < objects {
			ids[i] = o.ID
		}
	}
	if _, err := p.Ingest(batch[:objects]); err != nil {
		b.Fatal(err)
	}
	p.Flush()
	seed := p.Epoch()
	if _, err := p.Ingest(batch[objects:]); err != nil {
		b.Fatal(err)
	}
	p.Flush()
	if len(dirty) != objects || ep.Seq() != seed.Seq()+1 {
		b.Fatalf("publish of %d objects at epoch %d, want %d at %d", len(dirty), ep.Seq(), objects, seed.Seq()+1)
	}
	for _, n := range []int{64, 1000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			r := manualRegistry(Config{})
			for _, s := range workload.New(571).Subscriptions(n, ids) {
				pred := Predicate{Kind: Kind(s.Kind), Object: s.Object, Region: s.Region, X: s.X, Y: s.Y, Radius: s.Radius}
				if _, err := r.Subscribe(pred, seed); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Notify(ep, dirty)
				<-r.wake
				r.drain()
			}
		})
	}
}
