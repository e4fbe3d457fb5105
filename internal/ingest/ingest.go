// Package ingest is the streaming write path of the moving objects
// database: it turns batches of timestamped observations
// (object, t, x, y) into upoint units appended to per-object mpoint
// mappings, while preserving the §3.3 invariants that make the sliced
// representation queryable — pairwise-disjoint, temporally ordered unit
// intervals, and the adjacent-implies-distinct minimality rule, applied
// online as compaction (an incoming unit whose linear motion continues
// its predecessor's is merged into it).
//
// The pipeline has four parts:
//
//   - admission with a bounded queue and backpressure: admitted
//     observations wait in one run, in write-ahead-log order, and the
//     whole run drains into the store on size (any object with FlushSize
//     pending), on age (the run's oldest entry MaxAge old) or on Flush,
//     so every drain applies a contiguous suffix of the log in log order
//     and replaying the log rebuilds exactly the state that was served;
//   - an appender (the Store) extending each object's mapping under the
//     invariants, with online compaction;
//   - a write-ahead log on top of storage.PageStore: every acknowledged
//     batch is logged before the ack, and Open replays the log, so
//     acknowledged observations survive a crash;
//   - incremental index maintenance: the store owns a ladder of
//     immutable STR rungs over each object's sealed chunks of units.
//     Once 64 sealed chunks wait, the drain that sealed the last folds
//     them, with every trailing rung smaller than twice the running
//     total, into one bulk load — O(log n) rebuilds per entry, never a
//     rebuild of all history — and until then every publish builds them,
//     with the open chunks, into its epoch's one extra rung, so window
//     queries stay correct mid-ingest and an ack never waits on the
//     whole index.
//
// One lock, Pipeline.mu, guards the whole write path: admission, the
// WAL, the store, every drain and every checkpoint. Queries take no
// lock: they read the published Epoch (epoch.go).
package ingest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"movingdb/internal/fault"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/storage"
)

// Observation is one timestamped position report for one object — the
// wire unit of live trajectory ingestion (also the JSON shape of the
// POST /v1/ingest body elements).
type Observation struct {
	ObjectID string  `json:"id"`
	T        float64 `json:"t"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
}

// Errors surfaced by the write path. ErrBackpressure maps to HTTP 429,
// ErrInvalidObservation to 400, ErrDegraded to 503 with the "degraded"
// envelope code.
var (
	ErrBackpressure       = errors.New("ingest: write queue full")
	ErrInvalidObservation = errors.New("ingest: invalid observation")
	ErrClosed             = errors.New("ingest: pipeline closed")
	// ErrDegraded means the WAL medium is failing past the retry budget:
	// the batch was NOT acknowledged and is not durable. While the
	// pipeline is degraded, writes fail fast with this error and reads
	// keep serving the last consistent state; a background probe clears
	// the state automatically once the store recovers.
	ErrDegraded = errors.New("ingest: store degraded")
)

// Config assembles a Pipeline. Zero-valued tuning fields get defaults;
// only the seed data and the WAL medium carry state.
type Config struct {
	// SeedIDs and Seeds preload the object store (parallel slices);
	// their units form the index's first rung. Live observations
	// may extend seeded objects.
	SeedIDs []string
	Seeds   []moving.MPoint
	// Log is the page store backing the write-ahead log. Existing
	// records are replayed by Open; nil creates a fresh store (useful
	// for tests and benchmarks that do not exercise recovery).
	Log *storage.PageStore
	// FlushSize drains the pending run once any object has this many
	// observations in it. Default 32.
	FlushSize int
	// MaxAge drains the pending run once its oldest observation has
	// waited this long. Default 100ms.
	MaxAge time.Duration
	// MaxQueued bounds the pending run; past it, Ingest returns
	// ErrBackpressure. A batch larger than MaxQueued could never be
	// admitted and is refused with ErrInvalidObservation. Default 65536.
	MaxQueued int
	// Metrics receives ingest counters and flush latencies. Default: a
	// private registry nobody reads.
	Metrics *obs.Metrics
	// LogIO overrides Log with a custom page-I/O implementation — the
	// fault-injection seam (internal/fault.Store satisfies it
	// structurally). When set, Log is ignored.
	LogIO PageIO
	// CheckpointPages is how many pages of batch records accumulate
	// before the WAL writes a checkpoint and compacts, bounding replay.
	// Default 256; -1 disables checkpointing.
	CheckpointPages int
	// RetryAttempts is the number of tries a WAL append gets before the
	// batch is declared failed (so RetryAttempts-1 retries). Default 4.
	RetryAttempts int
	// RetryBase is the first backoff delay; it doubles per retry, with
	// jitter, capped at RetryMaxWait. Defaults 2ms and 50ms.
	RetryBase    time.Duration
	RetryMaxWait time.Duration
	// DegradedThreshold is how many consecutive exhausted-retry failures
	// flip the pipeline to degraded (fail-fast) mode. Default 3.
	DegradedThreshold int
	// ProbeInterval is how often, while degraded, one write is let
	// through to probe the store for recovery. Default 1s.
	ProbeInterval time.Duration
	// OnPublish, when set, is called after every epoch publish with the
	// new epoch and the objects whose state changed since the previous
	// one — the hook the live query subsystem's standing-query notifier
	// hangs off. It runs on the drain path (under the pipeline lock), so
	// implementations must be fast and must never call back into the
	// pipeline; hand the work to another goroutine (live.Registry.Notify
	// does exactly that).
	OnPublish func(ep *Epoch, dirty []DirtyObject)
}

// validate rejects negative tuning values: zero asks for the default,
// and no negative value means anything but CheckpointPages' -1.
func (c Config) validate() error {
	if c.CheckpointPages < -1 {
		return fmt.Errorf("ingest: CheckpointPages %d below -1", c.CheckpointPages)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"FlushSize", int64(c.FlushSize)}, {"MaxAge", int64(c.MaxAge)}, {"MaxQueued", int64(c.MaxQueued)},
		{"RetryAttempts", int64(c.RetryAttempts)}, {"RetryBase", int64(c.RetryBase)}, {"RetryMaxWait", int64(c.RetryMaxWait)},
		{"DegradedThreshold", int64(c.DegradedThreshold)}, {"ProbeInterval", int64(c.ProbeInterval)},
	} {
		if f.v < 0 {
			return fmt.Errorf("ingest: negative %s (%d)", f.name, f.v)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Log == nil {
		c.Log = storage.NewPageStore()
	}
	if c.LogIO == nil {
		c.LogIO = pageStoreIO{ps: c.Log}
	}
	if c.FlushSize == 0 {
		c.FlushSize = 32
	}
	if c.MaxAge == 0 {
		c.MaxAge = 100 * time.Millisecond
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 65536
	}
	if c.CheckpointPages == 0 {
		c.CheckpointPages = 256
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = 4
	}
	if c.RetryBase == 0 {
		c.RetryBase = 2 * time.Millisecond
	}
	if c.RetryMaxWait == 0 {
		c.RetryMaxWait = 50 * time.Millisecond
	}
	if c.DegradedThreshold == 0 {
		c.DegradedThreshold = 3
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.New(0)
	}
	return c
}

// Pipeline is the assembled write path: writes flow gate → WAL → run →
// appender → index → epoch publish; queries pin Epoch().
//
// mu is the write path's one lock (health aside, see health). It
// serialises admission, the WAL append included, with every drain, so
// run is always the log's unapplied suffix, in log order, and it guards
// the store and the WAL, so checkpoints and Stats see one cut of both.
type Pipeline struct {
	health    *health                     // immutable
	metrics   *obs.Metrics                // immutable
	onPublish func(*Epoch, []DirtyObject) // immutable

	flushSize     int           // immutable
	maxQueued     int           // immutable
	maxAge        time.Duration // immutable
	retryAttempts int           // immutable
	retryBase     time.Duration // immutable
	retryMaxWait  time.Duration // immutable
	probeInterval time.Duration // immutable

	mu      sync.Mutex
	store   *Store                // guarded by mu
	wal     *wal                  // guarded by mu
	run     []Observation         // guarded by mu; admitted, not yet applied, in WAL order
	pending map[string]int        // guarded by mu; observations per object in run
	first   time.Time             // guarded by mu; admission time of run[0]
	closed  bool                  // guarded by mu
	rng     *rand.Rand            // guarded by mu; backoff jitter, seeded 1 so schedules repeat
	epoch   atomic.Pointer[Epoch] // atomic; published under mu, loaded by queries without it

	done      chan struct{} // immutable; stops the age ticker
	ticker    sync.WaitGroup
	closeOnce sync.Once
}

// Open builds the pipeline: it seeds the object store, recovers the
// write-ahead log found on the medium — newest valid checkpoint state,
// if any, plus replay of the batch records after it — publishes the
// opening epoch and starts the age ticker. Recovery never fails open on
// damage: torn tails are truncated and corrupt records quarantined (see
// openWAL); only impossible configurations (mismatched seeds, negative
// tuning values) error.
func Open(cfg Config) (*Pipeline, error) {
	if len(cfg.SeedIDs) != len(cfg.Seeds) {
		return nil, errors.New("ingest: seed ids and objects length mismatch")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	w, rec, err := openWAL(cfg.LogIO, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	w.ckptEvery = cfg.CheckpointPages
	// A checkpoint already contains the seed objects from the first open
	// (they were live when it was written), so it supersedes cfg.Seeds
	// entirely.
	h := rec.state
	if h == nil {
		h = seedHistory(cfg.SeedIDs, cfg.Seeds)
	}
	st, err := newStore(h, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	// The seeds, or the checkpoint, are the opening epoch; the replayed
	// batches publish as the next one.
	opening, _ := st.publish(nil)
	for _, b := range rec.batches {
		st.Apply(b)
	}
	p := &Pipeline{
		store:         st,
		wal:           w,
		health:        newHealth(cfg.DegradedThreshold, cfg.ProbeInterval),
		metrics:       cfg.Metrics,
		retryAttempts: cfg.RetryAttempts,
		retryBase:     cfg.RetryBase,
		retryMaxWait:  cfg.RetryMaxWait,
		flushSize:     cfg.FlushSize,
		maxAge:        cfg.MaxAge,
		maxQueued:     cfg.MaxQueued,
		probeInterval: cfg.ProbeInterval,
		pending:       make(map[string]int),
		rng:           rand.New(rand.NewSource(1)),
		onPublish:     cfg.OnPublish,
		done:          make(chan struct{}),
	}
	p.epoch.Store(opening)
	p.mu.Lock()
	// Replayed batches were applied directly to the store above; publish
	// them so the first reader sees recovered data.
	p.publishEpochLocked()
	if rec.dirty && cfg.CheckpointPages > 0 {
		// The scan quarantined damage; re-checkpoint now, compacting all
		// the way to the fresh record, so the log stops carrying (and
		// re-reading) the damaged region on every open.
		p.checkpointLocked(true)
	}
	p.mu.Unlock()
	p.ticker.Add(1)
	go func() {
		defer p.ticker.Done()
		tick := time.NewTicker(max(p.maxAge/4, time.Millisecond))
		defer tick.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-tick.C:
				p.drainAged()
			}
		}
	}()
	return p, nil
}

// drainLocked applies the whole pending run to the store in one call —
// at most one fold — records the latency and publishes one epoch. The
// run's backing array is released, not kept for reuse, so a burst does
// not pin its peak size. Caller holds p.mu.
func (p *Pipeline) drainLocked() {
	if len(p.run) == 0 {
		return
	}
	start := time.Now()
	applied, dropped, compacted := p.store.Apply(p.run)
	p.run = nil
	clear(p.pending)
	m := &p.metrics.Ingest
	m.Applied.Add(int64(applied))
	m.Dropped.Add(int64(dropped))
	m.Compacted.Add(int64(compacted))
	m.Flush.Observe(time.Since(start))
	p.publishEpochLocked()
}

// drainAged is the ticker's pass: it drains the run once its oldest
// observation has waited maxAge.
func (p *Pipeline) drainAged() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.run) > 0 && time.Since(p.first) >= p.maxAge {
		p.drainLocked()
	}
}

// publishEpochLocked seals everything the drains since the last publish
// applied into the next epoch and publishes it. It runs once per drain,
// after its one apply (and that apply's fold, if any) completed; the
// store builds the epoch's object views and index in one call, so they
// agree exactly. A configured OnPublish hook (the live standing-query
// notifier) is handed the epoch and the per-object dirty rectangles in
// the same call, still on the drain path — it must only enqueue. Caller
// holds p.mu.
func (p *Pipeline) publishEpochLocked() {
	if !p.store.changed() {
		return // nothing to publish: no epoch, no timing, no fault trip spent
	}
	if err := fault.Hit("epoch.publish"); err != nil {
		// Injected publish failure. The drained state stays applied and the
		// store keeps accumulating the dirty set, so this defers publication
		// rather than losing it: the next successful drain publishes one
		// epoch covering everything since the last published one. Readers
		// keep serving the last published epoch throughout.
		p.metrics.RecordIngestCause("epoch_publish_deferred", 1)
		return
	}
	prev := p.epoch.Load()
	start := time.Now()
	ep, dirty := p.store.publish(prev)
	p.metrics.Ingest.Publish.Observe(time.Since(start))
	if ep != prev {
		p.epoch.Store(ep)
		p.metrics.RecordEpochPublish(ep.Seq())
		if p.onPublish != nil {
			p.onPublish(ep, dirty)
		}
	}
}

// RetryAfterHint maps a write-path rejection to how long a client
// should wait before retrying, for the HTTP Retry-After header.
// Backpressure clears as drains empty the queue, so the hint is the
// drain cadence (doubled while the queue is more than half full); a
// degraded pipeline admits one probe per probe interval, so retrying
// sooner than that can only hit the fast-fail path. Zero means "no
// hint": the error carries no retry semantics.
func (p *Pipeline) RetryAfterHint(err error) time.Duration {
	switch {
	case errors.Is(err, ErrBackpressure):
		p.mu.Lock()
		defer p.mu.Unlock()
		d := p.maxAge
		if len(p.run) > p.maxQueued/2 {
			d *= 2
		}
		return d
	case errors.Is(err, ErrDegraded):
		return p.probeInterval
	}
	return 0
}

// Ingest validates and admits one batch. On success the batch is in the
// write-ahead log — it survives a crash from here on — and pending
// apply; the returned sequence number is its WAL position. A full queue
// returns ErrBackpressure with nothing logged; a batch no queue could
// hold returns ErrInvalidObservation.
func (p *Pipeline) Ingest(batch []Observation) (uint64, error) {
	if len(batch) == 0 {
		return 0, fmt.Errorf("%w: empty batch", ErrInvalidObservation)
	}
	if len(batch) > p.maxQueued {
		return 0, fmt.Errorf("%w: batch of %d observations exceeds the queue bound (MaxQueued %d)", ErrInvalidObservation, len(batch), p.maxQueued)
	}
	for i, o := range batch {
		if o.ObjectID == "" {
			return 0, fmt.Errorf("%w: observation %d has no object id", ErrInvalidObservation, i)
		}
		if !finite(o.T) || !finite(o.X) || !finite(o.Y) {
			return 0, fmt.Errorf("%w: observation %d (%q) has a non-finite field", ErrInvalidObservation, i, o.ObjectID)
		}
	}
	if !p.health.allowAttempt(time.Now()) {
		p.metrics.RecordIngestCause("degraded_fast_fail", 1)
		return 0, fmt.Errorf("%w (%s)", ErrDegraded, p.health.report().Cause)
	}
	seq, err := p.admit(batch)
	switch {
	case err == nil:
		p.metrics.Ingest.Batches.Inc()
		p.metrics.Ingest.Observations.Add(int64(len(batch)))
	case errors.Is(err, ErrBackpressure):
		p.metrics.Ingest.Backpressure.Inc()
	}
	return seq, err
}

// admit runs the bound check, the WAL append and the append to the run
// under one lock, so acknowledged order is log order is run order. An
// admission that brings any object to flushSize pending drains the whole
// run before returning: the size trigger is synchronous, only the age
// trigger rides the ticker. So is the checkpoint trigger: the admission
// whose append crosses CheckpointPages writes the checkpoint before it
// releases p.mu, so each crossing is seen, and written, once.
func (p *Pipeline) admit(batch []Observation) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	if len(p.run)+len(batch) > p.maxQueued {
		return 0, ErrBackpressure
	}
	seq, err := p.logAppendLocked(batch)
	if err != nil {
		return 0, err
	}
	if len(p.run) == 0 {
		p.first = time.Now()
	}
	p.run = append(p.run, batch...)
	full := false
	for _, o := range batch {
		n := p.pending[o.ObjectID] + 1
		p.pending[o.ObjectID] = n
		full = full || n >= p.flushSize
	}
	if full {
		p.drainLocked()
	}
	if p.wal.checkpointDue() {
		p.checkpointLocked(false)
	}
	return seq, nil
}

// logAppendLocked is the WAL append wrapped in a bounded retry loop
// with exponential backoff and jitter for transient store faults.
// Exhausting the budget counts the batch as a dead letter, advances the
// health state machine toward degraded mode, and reports ErrDegraded —
// the batch was never acknowledged, so the caller knows it is not
// durable. Caller holds p.mu, which also serialises p.rng.
func (p *Pipeline) logAppendLocked(batch []Observation) (uint64, error) {
	var err error
	wait := p.retryBase
	for attempt := 0; attempt < p.retryAttempts; attempt++ {
		if attempt > 0 {
			// Full jitter over the doubling window. The cap applies before
			// the doubling, so no retry budget can overflow the window.
			wait = min(wait, p.retryMaxWait)
			time.Sleep(time.Duration(p.rng.Int63n(int64(wait))) + wait/2)
			wait *= 2
			p.metrics.RecordIngestCause("wal_retry", 1)
		}
		var seq uint64
		if seq, err = p.wal.append(batch); err == nil {
			p.health.onSuccess()
			return seq, nil
		}
	}
	p.health.onFailure(err.Error(), len(batch), time.Now())
	p.metrics.RecordIngestCause("dead_letter", len(batch))
	return 0, fmt.Errorf("%w: %w", ErrDegraded, err)
}

// checkpointLocked drains the run and writes the checkpoint. Caller
// holds p.mu, so no admission (and therefore no WAL append) interleaves:
// the snapshot is consistent with exactly the WAL sequence it is stamped
// with. Checkpoint failure is not an ingest failure: the log stays
// valid, just longer, and the next trigger retries.
func (p *Pipeline) checkpointLocked(dropPrevious bool) {
	p.drainLocked()
	if err := p.wal.checkpoint(encodeState(p.store), dropPrevious); err != nil {
		p.metrics.RecordIngestCause("checkpoint_failed", 1)
	}
}

// Health reports the degradation state machine and the dead-letter
// counts.
func (p *Pipeline) Health() Health { return p.health.report() }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Flush synchronously drains the pending run into the store,
// establishing read-your-writes for everything acknowledged so far.
func (p *Pipeline) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.drainLocked()
}

// Close stops the age ticker and drains the pending run. The pipeline
// rejects new batches afterwards; queries keep working.
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.done)
		p.ticker.Wait()
		p.Flush()
	})
}

// Epoch returns the current published epoch — the immutable snapshot
// queries pin for their lifetime. Every acknowledged-and-flushed write
// is visible in it (Flush establishes read-your-writes by draining the
// run and publishing).
func (p *Pipeline) Epoch() *Epoch { return p.epoch.Load() }

// Stats is one cut of the pipeline, read in one critical section of
// p.mu: Applied + Dropped + QueueDepth counts exactly the observations
// in log records 1..WALSeq. The index fields count the ladder's
// sealed-chunk entries: rung_entries folded into rungs, tail_entries
// waiting for a fold (each epoch searches them in its extra rung, with
// the open chunks, which are not counted), and index_merges the folds
// that consumed an existing rung.
type Stats struct {
	Objects         int    `json:"objects"`
	Units           int    `json:"units"`
	QueueDepth      int    `json:"queue_depth"`
	Applied         int64  `json:"applied"`
	Dropped         int64  `json:"dropped"`
	Compacted       int64  `json:"compacted"`
	RungEntries     int    `json:"rung_entries"`
	TailEntries     int    `json:"tail_entries"`
	IndexMerges     int    `json:"index_merges"`
	WALSeq          uint64 `json:"wal_seq"`
	WALPages        int    `json:"wal_pages"`
	WALCheckpoints  int64  `json:"wal_checkpoints"`
	WALQuarantined  int    `json:"wal_quarantined_pages"`
	DeadLetterBatch int    `json:"dead_letter_batches"`
	DeadLetterObs   int    `json:"dead_letter_observations"`
	Degraded        bool   `json:"degraded"`
	Epoch           uint64 `json:"epoch"`
}

// Stats snapshots the pipeline counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.store.stats()
	h := p.health.report()
	st.QueueDepth = len(p.run)
	st.WALSeq, st.WALPages, st.WALCheckpoints, st.WALQuarantined = p.wal.seq, p.wal.pages, p.wal.checkpoints, p.wal.quarantinedPages
	st.DeadLetterBatch, st.DeadLetterObs, st.Degraded = h.DeadLetterBatches, h.DeadLetterObs, h.Degraded
	st.Epoch = p.epoch.Load().Seq()
	return st
}
