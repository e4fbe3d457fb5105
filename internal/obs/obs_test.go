package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestRequestCounters(t *testing.T) {
	m := New(4)
	m.RecordRequest("/v1/query", 200, 3*time.Millisecond)
	m.RecordRequest("/v1/query", 408, 12*time.Millisecond)
	m.RecordRequest("/v1/window", 400, 500*time.Microsecond)
	s := m.Snapshot()
	q := s.Requests["/v1/query"]
	if q.Count != 2 || q.Errors != 1 || q.Timeouts != 1 {
		t.Fatalf("query route = %+v", q)
	}
	if q.Statuses["200"] != 1 || q.Statuses["408"] != 1 {
		t.Errorf("statuses = %v", q.Statuses)
	}
	if q.LatencyMS["5ms"] != 1 || q.LatencyMS["25ms"] != 1 {
		t.Errorf("latency buckets = %v", q.LatencyMS)
	}
	if q.MaxMillis < 11 || q.AvgMillis <= 0 {
		t.Errorf("avg/max = %v/%v", q.AvgMillis, q.MaxMillis)
	}
	w := s.Requests["/v1/window"]
	if w.Count != 1 || w.Errors != 1 || w.Timeouts != 0 {
		t.Errorf("window route = %+v", w)
	}
}

// TestBucketLabelsRoundTrip: every histogram label parses back to
// exactly the bound it names, so a reader of latency_ms is never told
// "2s" about a bucket that counts requests up to 2.5 s.
func TestBucketLabelsRoundTrip(t *testing.T) {
	labels := BucketLabels()
	if len(labels) != len(bucketsMS)+1 || labels[len(bucketsMS)] != "+Inf" {
		t.Fatalf("labels = %v", labels)
	}
	for i, ub := range bucketsMS {
		d, err := time.ParseDuration(labels[i])
		if err != nil || float64(d)/float64(time.Millisecond) != ub {
			t.Errorf("label %q for bound %v ms parses to %v (%v)", labels[i], ub, d, err)
		}
	}
}

func TestOpTimings(t *testing.T) {
	m := New(0)
	m.RecordOp("inside", 2*time.Millisecond)
	m.RecordOp("inside", 4*time.Millisecond)
	m.RecordOp("length", time.Microsecond)
	s := m.Snapshot()
	in := s.Operators["inside"]
	if in.Count != 2 || in.AvgMicros < 1000 || in.MaxMicros < in.AvgMicros {
		t.Fatalf("inside = %+v", in)
	}
	if s.Operators["length"].Count != 1 {
		t.Errorf("length = %+v", s.Operators["length"])
	}
}

func TestSlowQueryRing(t *testing.T) {
	m := New(2)
	for i, q := range []string{"a", "b", "c"} {
		m.RecordSlowQuery(SlowQuery{Query: q, Millis: float64(i)})
	}
	got := m.Snapshot().SlowQueries
	if len(got) != 2 || got[0].Query != "b" || got[1].Query != "c" {
		t.Fatalf("ring = %v", got)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var m *Metrics
	m.RecordRequest("/x", 200, time.Millisecond)
	m.RecordOp("inside", time.Millisecond)
	m.RecordSlowQuery(SlowQuery{})
	if s := m.Snapshot(); len(s.Requests) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	// A context without a registry yields nil, which is safe to use.
	FromContext(context.Background()).RecordOp("inside", time.Millisecond)
}

func TestContextRoundTrip(t *testing.T) {
	m := New(0)
	ctx := NewContext(context.Background(), m)
	if FromContext(ctx) != m {
		t.Fatal("registry lost in context")
	}
	if NewContext(context.Background(), nil) != context.Background() {
		t.Error("nil registry should not wrap the context")
	}
}

func TestConcurrentRecording(t *testing.T) {
	m := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.RecordRequest("/v1/query", 200, time.Millisecond)
				m.RecordOp("inside", time.Microsecond)
				m.RecordSlowQuery(SlowQuery{Query: "q"})
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Requests["/v1/query"].Count != 800 || s.Operators["inside"].Count != 800 {
		t.Fatalf("lost updates: %+v", s)
	}
}

func TestIngestMetrics(t *testing.T) {
	m := New(0)
	m.RecordIngestBatch(5)
	m.RecordIngestBatch(3)
	m.RecordIngestBackpressure()
	m.RecordIngestFlush(4, 1, 2, 2*time.Millisecond)
	m.RecordIngestFlush(4, 0, 0, 4*time.Millisecond)
	m.RecordIndexMerge()
	m.RecordWALAppend(3)
	s := m.Snapshot().Ingest
	if s.Batches != 2 || s.Observations != 8 || s.Backpressure != 1 {
		t.Fatalf("admission counters: %+v", s)
	}
	if s.Flushes != 2 || s.Applied != 8 || s.DroppedNonMonotone != 1 || s.Compacted != 2 {
		t.Fatalf("flush counters: %+v", s)
	}
	if s.AvgFlushMillis < 2.9 || s.AvgFlushMillis > 3.1 || s.MaxFlushMillis < 3.9 {
		t.Fatalf("flush latencies: %+v", s)
	}
	if s.IndexMerges != 1 || s.WALRecords != 1 || s.WALPages != 3 {
		t.Fatalf("maintenance counters: %+v", s)
	}
	// The nil registry swallows all ingest recording.
	var nilM *Metrics
	nilM.RecordIngestBatch(1)
	nilM.RecordIngestBackpressure()
	nilM.RecordIngestFlush(1, 0, 0, time.Millisecond)
	nilM.RecordIndexMerge()
	nilM.RecordWALAppend(1)
}

func TestFaultRecoveryMetrics(t *testing.T) {
	m := New(0)
	m.RecordWALCheckpoint(2)
	m.RecordWALCheckpoint(3)
	m.RecordWALQuarantine(4, "checkpoint")
	m.RecordWALQuarantine(1, "record")
	m.RecordWALQuarantine(1, "record")
	m.RecordIngestCause("wal_retry", 3)
	m.RecordIngestCause("dead_letter", 7)
	s := m.Snapshot().Ingest
	if s.WALCheckpoints != 2 || s.WALCheckpointPages != 5 {
		t.Fatalf("checkpoint counters: %+v", s)
	}
	if s.WALQuarantinedPages != 6 {
		t.Fatalf("quarantine counter: %+v", s)
	}
	if s.Causes["wal_quarantine_checkpoint"] != 1 || s.Causes["wal_quarantine_record"] != 2 {
		t.Fatalf("quarantine causes: %v", s.Causes)
	}
	if s.Causes["wal_retry"] != 3 || s.Causes["dead_letter"] != 7 {
		t.Fatalf("ingest causes: %v", s.Causes)
	}
	// The snapshot map is a copy, detached from the live registry.
	s.Causes["wal_retry"] = 999
	if m.Snapshot().Ingest.Causes["wal_retry"] != 3 {
		t.Fatal("snapshot causes map aliases the registry")
	}
	// The nil registry swallows the fault-path recording too.
	var nilM *Metrics
	nilM.RecordWALCheckpoint(1)
	nilM.RecordWALQuarantine(1, "record")
	nilM.RecordIngestCause("x", 1)
}
