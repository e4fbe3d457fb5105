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
	labels := bucketLabels
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

// TestNilRegistryIsSafe: the six Record methods are what code holding
// "whatever FromContext returned" calls, so they — and only they —
// accept a nil receiver.
func TestNilRegistryIsSafe(t *testing.T) {
	var m *Metrics
	m.RecordRequest("/x", 200, time.Millisecond)
	m.RecordOp("inside", time.Millisecond)
	m.RecordSlowQuery(SlowQuery{})
	m.RecordIngestCause("x", 1)
	m.RecordFaultTrip("wal.put")
	m.RecordEpochPublish(1)
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
	ing := &m.Ingest
	ing.Batches.Add(2)
	ing.Observations.Add(8)
	ing.Backpressure.Inc()
	ing.Applied.Add(8)
	ing.Dropped.Inc()
	ing.Compacted.Add(2)
	ing.Flush.Observe(2 * time.Millisecond)
	ing.Flush.Observe(4 * time.Millisecond)
	ing.IndexMerges.Inc()
	ing.WALRecords.Inc()
	ing.WALPages.Add(3)
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
}

func TestFaultRecoveryMetrics(t *testing.T) {
	m := New(0)
	m.Ingest.WALCheckpoints.Add(2)
	m.Ingest.WALCheckpointPages.Add(5)
	m.Ingest.WALQuarantined.Add(6)
	m.RecordIngestCause("wal_quarantine_record", 1)
	m.RecordIngestCause("wal_quarantine_record", 1)
	m.RecordIngestCause("wal_retry", 3)
	m.RecordIngestCause("dead_letter", 7)
	m.RecordFaultTrip("wal.put")
	snap := m.Snapshot()
	s := snap.Ingest
	if s.WALCheckpoints != 2 || s.WALCheckpointPages != 5 || s.WALQuarantinedPages != 6 {
		t.Fatalf("checkpoint/quarantine counters: %+v", s)
	}
	if s.Causes["wal_quarantine_record"] != 2 || s.Causes["wal_retry"] != 3 || s.Causes["dead_letter"] != 7 {
		t.Fatalf("ingest causes: %v", s.Causes)
	}
	if snap.Faults["wal.put"] != 1 {
		t.Fatalf("fault trips: %v", snap.Faults)
	}
	// The snapshot map is a copy, detached from the live registry.
	s.Causes["wal_retry"] = 999
	if m.Snapshot().Ingest.Causes["wal_retry"] != 3 {
		t.Fatal("snapshot causes map aliases the registry")
	}
}

// TestLiveAndEpochMetrics: an evaluation round covers n subscriptions,
// so the average is per subscription and the maximum per round; the
// epoch age counts from the last publish.
func TestLiveAndEpochMetrics(t *testing.T) {
	m := New(0)
	m.Live.Eval.ObserveN(4, 8*time.Microsecond)
	m.Live.Eval.ObserveN(0, 2*time.Microsecond) // a publish no subscription cared about
	m.Live.Events.Add(3)
	l := m.Snapshot().Live
	if l.Evaluated != 4 || l.AvgEvalMicros != 2.5 || l.MaxEvalMicros != 8 || l.Events != 3 {
		t.Fatalf("live = %+v", l)
	}
	if e := m.Snapshot().Epoch; e.Seq != 0 || e.Publishes != 0 || e.AgeSeconds != 0 {
		t.Fatalf("epoch before any publish = %+v", e)
	}
	m.RecordEpochPublish(7)
	time.Sleep(2 * time.Millisecond)
	if e := m.Snapshot().Epoch; e.Seq != 7 || e.Publishes != 1 || e.AgeSeconds < 0.002 || e.AgeSeconds > 60 {
		t.Fatalf("epoch after publish = %+v", e)
	}
}

// TestTimingMaxUnderContention: the maximum is kept by compare-and-swap,
// so it must equal the largest duration any goroutine observed.
func TestTimingMaxUnderContention(t *testing.T) {
	var tm Timing
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				tm.Observe(time.Duration(i*8+g) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	count, _, max := tm.read(1)
	if count != 8000 || max != 8007 {
		t.Fatalf("count, max = %d, %v; want 8000, 8007", count, max)
	}
}

// TestFamilyFirstSeenLabel: eight goroutines meeting a label for the
// first time must all get the same series, or increments are lost.
func TestFamilyFirstSeenLabel(t *testing.T) {
	for round := 0; round < 50; round++ {
		var f family[Counter]
		got := make([]*Counter, 8)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				got[g] = f.get("new")
				got[g].Inc()
				f.get(string(rune('a' + g))).Inc() // and a label of its own, racing the others' publishes
			}(g)
		}
		close(start)
		wg.Wait()
		for _, c := range got {
			if c != got[0] {
				t.Fatal("two series for one label")
			}
		}
		if n := f.get("new").Load(); n != 8 {
			t.Fatalf("round %d: %d increments survived, want 8", round, n)
		}
		if len(f.all()) != 9 {
			t.Fatalf("round %d: %d labels, want 9", round, len(f.all()))
		}
	}
}
