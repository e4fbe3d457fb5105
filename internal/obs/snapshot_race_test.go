package obs

import (
	"sync"
	"testing"
	"time"
)

// TestSnapshotDetachedUnderLoad: Snapshot copies everything — slow-query
// ring, histogram buckets, status and cause maps — into fresh storage,
// so a caller holding a snapshot while writers keep recording sees
// neither races (checked by -race) nor later mutations bleeding into
// its copy (checked by the aliasing assertions below). Each series is
// read atomically; the snapshot is not one cut across series.
func TestSnapshotDetachedUnderLoad(t *testing.T) {
	m := New(4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.RecordRequest("/v1/query", 200, time.Duration(i)*time.Microsecond)
				m.RecordOp("atinstant", time.Microsecond)
				m.RecordSlowQuery(SlowQuery{Route: "/v1/query", Millis: float64(i)})
				m.RecordIngestCause("retry", 1)
				m.Ingest.WALQuarantined.Inc()
				m.Cache.Hits.Inc()
				m.Live.Eval.ObserveN(2, time.Microsecond)
			}
		}(w)
	}

	for i := 0; i < 100; i++ {
		snap := m.Snapshot()
		// Mutating the snapshot must not reach the registry: every
		// container is a fresh copy, not a view of live state.
		for route := range snap.Requests {
			rs := snap.Requests[route]
			rs.Statuses["999"] = -1
			rs.LatencyMS["1ms"] = -1
		}
		if len(snap.SlowQueries) > 0 {
			snap.SlowQueries[0].Query = "mutated"
		}
		snap.Ingest.Causes["injected"] = -1
	}
	close(stop)
	wg.Wait()

	final := m.Snapshot()
	if _, leaked := final.Ingest.Causes["injected"]; leaked {
		t.Error("snapshot cause map aliases the registry's live map")
	}
	if rs, ok := final.Requests["/v1/query"]; ok {
		if _, leaked := rs.Statuses["999"]; leaked {
			t.Error("snapshot status map aliases the registry's live map")
		}
		if rs.LatencyMS["1ms"] < 0 {
			t.Error("snapshot latency map aliases the registry's live map")
		}
	}
	for _, sq := range final.SlowQueries {
		if sq.Query == "mutated" {
			t.Error("snapshot slow-query slice aliases the live ring")
		}
	}
	if len(final.SlowQueries) > 4 {
		t.Errorf("slow-query ring returned %d entries, cap is 4", len(final.SlowQueries))
	}
}
