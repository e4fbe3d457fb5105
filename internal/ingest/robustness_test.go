package ingest

import (
	"errors"
	"testing"
	"time"

	"movingdb/internal/fault"
	"movingdb/internal/obs"
	"movingdb/internal/storage"
)

// faultPipeline builds a pipeline whose WAL medium is wrapped in the
// fault-injection layer, with fast retry/probe tuning for tests.
func faultPipeline(t *testing.T, cfg Config) (*Pipeline, *fault.Injector, *storage.PageStore) {
	t.Helper()
	in := fault.New(42)
	ps := storage.NewPageStore()
	cfg.LogIO = fault.NewStore(in, "wal", ps)
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.RetryMaxWait == 0 {
		cfg.RetryMaxWait = 2 * time.Millisecond
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 5 * time.Millisecond
	}
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, in, ps
}

// TestRetryRidesOutTransientFault: a fault that clears within the retry
// budget is invisible to the client — the batch is acknowledged, logged
// exactly once, and the health state machine stays clean.
func TestRetryRidesOutTransientFault(t *testing.T) {
	m := obs.New(0)
	p, in, _ := faultPipeline(t, Config{Metrics: m, CheckpointPages: -1})
	defer p.Close()
	in.Set("wal.put", fault.Spec{Mode: fault.ModeError, Times: 2})
	seq, err := p.Ingest([]Observation{{ObjectID: "a", T: 1, X: 0, Y: 0}})
	if err != nil || seq != 1 {
		t.Fatalf("ingest under transient fault: seq=%d err=%v", seq, err)
	}
	if got := in.Trips("wal.put"); got != 2 {
		t.Fatalf("trips = %d, want the full transient budget of 2", got)
	}
	if h := p.Health(); h.Degraded || h.ConsecutiveFailures != 0 {
		t.Fatalf("health dirty after a ridden-out fault: %+v", h)
	}
	snap := m.Snapshot()
	if snap.Ingest.Causes["wal_retry"] < 2 {
		t.Fatalf("retry counter = %d, want >= 2 (causes: %v)", snap.Ingest.Causes["wal_retry"], snap.Ingest.Causes)
	}
	// The ack is real: the batch survives a crash.
	if st := p.Stats(); st.WALSeq != 1 {
		t.Fatalf("wal seq = %d after acked batch", st.WALSeq)
	}
}

// TestRetryBackoffNeverOverflows: the backoff window doubles per retry
// but is capped at RetryMaxWait before it doubles, so a long retry budget
// against a persistent fault ends in ErrDegraded, not in an overflowed,
// negative window that panics in the jitter draw while p.mu is held.
func TestRetryBackoffNeverOverflows(t *testing.T) {
	p, in, _ := faultPipeline(t, Config{
		CheckpointPages: -1, RetryAttempts: 70,
		RetryBase: time.Nanosecond, RetryMaxWait: time.Microsecond,
	})
	defer p.Close()
	in.Set("wal.put", fault.Spec{Mode: fault.ModeError}) // persistent
	if _, err := p.Ingest([]Observation{{ObjectID: "a", T: 1}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("want ErrDegraded after 70 attempts, got %v", err)
	}
	if got := in.Trips("wal.put"); got != 70 {
		t.Fatalf("trips = %d, want 70", got)
	}
}

// TestHealthReadDuringFailures reads Health while 50 ingests fail and
// move the health state machine, so -race sees both sides of health.mu.
func TestHealthReadDuringFailures(t *testing.T) {
	p, in, _ := faultPipeline(t, Config{CheckpointPages: -1, RetryAttempts: 1, DegradedThreshold: 100})
	defer p.Close()
	in.Set("wal.put", fault.Spec{Mode: fault.ModeError})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 50 {
			if _, err := p.Ingest([]Observation{{ObjectID: "a", T: float64(i)}}); !errors.Is(err, ErrDegraded) {
				t.Errorf("ingest %d under wal.put=error: %v", i, err)
			}
		}
	}()
	for {
		select {
		case <-done:
			if h := p.Health(); h.Degraded || h.ConsecutiveFailures != 50 || h.DeadLetterBatches != 50 {
				t.Fatalf("health after 50 failed ingests: %+v", h)
			}
			return
		default:
			p.Health()
		}
	}
}

// TestRetryAfterHintDuringIngest asks for the backpressure hint while
// another goroutine fills the queue, so -race sees both sides of p.mu.
func TestRetryAfterHintDuringIngest(t *testing.T) {
	p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour, MaxQueued: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 50 {
			if _, err := p.Ingest([]Observation{{ObjectID: "a", T: float64(i)}}); err != nil && !errors.Is(err, ErrBackpressure) {
				t.Errorf("ingest %d: %v", i, err)
			}
		}
	}()
	for {
		select {
		case <-done:
			if d := p.RetryAfterHint(ErrBackpressure); d != 2*time.Hour {
				t.Fatalf("hint with a full queue = %v, want twice MaxAge", d)
			}
			return
		default:
			p.RetryAfterHint(ErrBackpressure)
		}
	}
}

// TestTornWriteRepairedOnFailedAppend: a torn WAL Put leaves partial
// pages behind; the append must fail AND scrub them so the next
// successful append lands where recovery will scan.
func TestTornWriteRepairedOnFailedAppend(t *testing.T) {
	p, in, ps := faultPipeline(t, Config{CheckpointPages: -1, RetryAttempts: 1, DegradedThreshold: 100})
	defer p.Close()
	in.Set("wal.put", fault.Spec{Mode: fault.ModeTorn, Times: 1})
	big := make([]Observation, 300) // multi-page record, so the tear is partial
	for i := range big {
		big[i] = Observation{ObjectID: "bulk", T: float64(i), X: 1, Y: 2}
	}
	if _, err := p.Ingest(big); !errors.Is(err, ErrDegraded) {
		t.Fatalf("torn append: want ErrDegraded, got %v", err)
	}
	if n := ps.NumPages(); n != 0 {
		t.Fatalf("torn pages not scrubbed: %d pages remain", n)
	}
	if seq, err := p.Ingest([]Observation{{ObjectID: "a", T: 1, X: 0, Y: 0}}); err != nil || seq != 1 {
		t.Fatalf("append after repair: seq=%d err=%v", seq, err)
	}
	// The surviving log replays cleanly: one batch, no quarantine.
	var2, rec, err := openWAL(pageStoreIO{ps}, obs.New(0))
	if err != nil || len(rec.batches) != 1 || var2.quarantinedPages != 0 {
		t.Fatalf("post-repair log: err=%v batches=%d quarantined=%d", err, len(rec.batches), var2.quarantinedPages)
	}
}

// TestDegradedModeAndRecovery walks the whole state machine: persistent
// fault → dead letters are counted → threshold flips to degraded
// (fail-fast, no store hammering) → reads still serve → fault clears →
// probe write recovers → healthy again.
func TestDegradedModeAndRecovery(t *testing.T) {
	m := obs.New(0)
	p, in, _ := faultPipeline(t, Config{
		Metrics: m, CheckpointPages: -1,
		RetryAttempts: 2, DegradedThreshold: 2,
		ProbeInterval: time.Hour, // probed manually below, for determinism
	})
	defer p.Close()
	// A healthy write first, so reads have state to keep serving.
	if _, err := p.Ingest([]Observation{{ObjectID: "a", T: 1, X: 5, Y: 5}, {ObjectID: "a", T: 2, X: 6, Y: 6}}); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	preFault := len(p.Epoch().AtInstant(1.5))

	in.Set("wal.put", fault.Spec{Mode: fault.ModeError}) // persistent
	for i := 0; i < 2; i++ {
		if _, err := p.Ingest([]Observation{{ObjectID: "b", T: float64(10 + i), X: 0, Y: 0}}); !errors.Is(err, ErrDegraded) {
			t.Fatalf("failure %d: want ErrDegraded, got %v", i, err)
		}
	}
	h := p.Health()
	if !h.Degraded || h.DeadLetterBatches != 2 || h.DeadLetterObs != 2 {
		t.Fatalf("after threshold: %+v", h)
	}
	// Degraded mode fails fast: the store is not retried per request.
	trips := in.Trips("wal.put")
	if _, err := p.Ingest([]Observation{{ObjectID: "c", T: 1, X: 0, Y: 0}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("fail-fast: want ErrDegraded, got %v", err)
	}
	if in.Trips("wal.put") != trips {
		t.Fatal("degraded mode still hammered the store")
	}
	if m.Snapshot().Ingest.Causes["degraded_fast_fail"] == 0 {
		t.Fatal("fast-fail not counted")
	}
	// Reads keep serving the last consistent state.
	if got := len(p.Epoch().AtInstant(1.5)); got != preFault {
		t.Fatalf("reads changed under degradation: %d positions, want %d", got, preFault)
	}
	// Fault clears; once the probe timer expires one write is let
	// through and recovery is automatic. Expire it by hand rather than
	// sleeping through a real interval.
	in.Clear("wal.put")
	p.health.mu.Lock()
	p.health.lastProbe = time.Time{}
	p.health.mu.Unlock()
	if _, err := p.Ingest([]Observation{{ObjectID: "d", T: 1, X: 0, Y: 0}}); err != nil {
		t.Fatalf("probe write after fault cleared: %v", err)
	}
	// The dead-letter counts are cumulative: recovery does not reset them.
	if h := p.Health(); h.Degraded || h.DeadLetterBatches != 2 || h.DeadLetterObs != 2 {
		t.Fatalf("after successful probe: %+v", h)
	}
}

// TestCheckpointCompactRefusedIsHarmless: an injected refusal of the
// compaction step leaves a longer but fully valid log — nothing is
// lost, and restart state matches.
func TestCheckpointCompactRefusedIsHarmless(t *testing.T) {
	p, in, ps := faultPipeline(t, Config{FlushSize: 4, MaxAge: time.Hour, CheckpointPages: 2})
	in.Set("wal.compact", fault.Spec{Mode: fault.ModeError}) // every compaction refused
	for i := 0; i < 200; i++ {
		if _, err := p.Ingest([]Observation{{ObjectID: "a", T: float64(i), X: float64(i), Y: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	if st := p.Stats(); st.WALCheckpoints == 0 {
		t.Fatal("no checkpoints under refused compaction")
	}
	// A refused compaction removed no page, so the log's count keeps
	// every one of them.
	if st, n := p.Stats(), ps.NumPages(); st.WALPages != n {
		t.Fatalf("Stats().WALPages = %d, but the log holds %d pages", st.WALPages, n)
	}
	want := fingerprint(p)
	p.Close()
	p2, _ := reopenFromImage(t, ps, Config{CheckpointPages: 2})
	defer p2.Close()
	if got := fingerprint(p2); got != want {
		t.Fatalf("refused-compaction log diverged on restart:\n got %s\nwant %s", got, want)
	}
}
