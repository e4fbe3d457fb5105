// Package obs is the observability layer of the serving stack: request
// counters, latency histograms, per-operator timings, write-path, cache
// and live-query counters and a slow-query log. Every series is one of
// three lock-free types — Counter, Timing, and the per-route histogram
// built from them — that its owning layer updates directly; series
// keyed by a label known only at run time (route, operator, cause,
// failpoint site) live in a family. A snapshot of the registry is what
// /v1/metrics serves (expvar-style JSON). The package has no dependencies beyond the standard library so
// every layer — server, db, moving — may import it freely.
package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a count (only ever added to) or a gauge (added to and
// subtracted from). The zero value is ready to use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which may be negative for a gauge.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// raise lifts the value to n if n is larger. The common case — n is not
// a new maximum — is one load and no write.
func (c *Counter) raise(n int64) {
	for {
		old := c.v.Load()
		if n <= old || c.v.CompareAndSwap(old, n) {
			return
		}
	}
}

// Timing accumulates durations: how many units of work they covered,
// their total and the longest one. The zero value is ready to use.
type Timing struct{ count, sumNS, maxNS Counter }

// Observe records one unit of work that took d.
func (t *Timing) Observe(d time.Duration) { t.ObserveN(1, d) }

// ObserveN records one duration d that covered n units of work (an
// evaluation round over n subscriptions): the average is per unit, the
// maximum per call.
func (t *Timing) ObserveN(n int, d time.Duration) {
	t.count.Add(int64(n))
	t.sumNS.Add(d.Nanoseconds())
	t.maxNS.raise(d.Nanoseconds())
}

// read returns the unit count, the mean per unit and the longest
// observation, the two times in nanoseconds divided by div (1e3 for µs,
// 1e6 for ms).
func (t *Timing) read(div float64) (count int64, avg, max float64) {
	if count = t.count.Load(); count > 0 {
		avg = float64(t.sumNS.Load()) / float64(count) / div
	}
	return count, avg, float64(t.maxNS.Load()) / div
}

// bucketsMS are the upper bounds (milliseconds, inclusive) of the
// latency histogram and bucketLabels their "le"-style names; a final
// overflow bucket catches everything above. A bound is labelled in
// whole seconds only when that is exact (2500 is "2500ms", not "2s").
var (
	bucketsMS    = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
	bucketLabels = [...]string{"1ms", "2ms", "5ms", "10ms", "25ms", "50ms", "100ms", "250ms", "500ms", "1s", "2500ms", "5s", "+Inf"}
)

// routeHist is one route's request metrics: a fixed-bucket latency
// distribution with total and maximum, and a count per status code. It
// keeps no request count (that is the sum of the buckets) and no error
// count (the sum of the statuses from 400 up). HTTP status codes are
// three digits, so the code itself indexes the table and counting one
// is an atomic add with no map and no formatting — a string-keyed map
// here cost an allocation per request. The zero value is ready to use;
// at 4.9 KB it is created on a route's first request, not per
// registered route.
type routeHist struct {
	buckets      [len(bucketLabels)]Counter
	sumNS, maxNS Counter
	statuses     [600]Counter // slot 0 takes codes outside the table
}

// observe records one request: four atomic operations.
func (h *routeHist) observe(status int, d time.Duration) {
	ns := d.Nanoseconds()
	ms := float64(ns) / 1e6
	slot := len(bucketsMS) // overflow
	for i, ub := range bucketsMS {
		if ms <= ub {
			slot = i
			break
		}
	}
	if status < 0 || status >= len(h.statuses) {
		status = 0
	}
	h.statuses[status].Inc()
	h.buckets[slot].Inc()
	h.sumNS.Add(ns)
	h.maxNS.raise(ns)
}

// family is a set of series keyed by a label known only at run time.
// Labels are few and appear early, so the set is a copy-on-write map:
// get on a known label is one atomic load and a map read, and a
// first-seen label copies the map and publishes it with a CAS, retrying
// if another goroutine published first — so every caller of a label
// gets the same series.
type family[T any] struct{ m atomic.Pointer[map[string]*T] }

func (f *family[T]) get(label string) *T {
	for {
		old := f.m.Load()
		if old != nil {
			if s, ok := (*old)[label]; ok {
				return s
			}
		}
		s := new(T)
		next := map[string]*T{label: s}
		if old != nil {
			for k, v := range *old {
				next[k] = v
			}
		}
		if f.m.CompareAndSwap(old, &next) {
			return s
		}
	}
}

// all returns the current label → series map, which is never written
// again; callers must not write to it either.
func (f *family[T]) all() map[string]*T {
	if m := f.m.Load(); m != nil {
		return *m
	}
	return nil
}

// counts copies a family of counters into a fresh map.
func counts(f *family[Counter]) map[string]int64 {
	out := make(map[string]int64, len(f.all()))
	for label, c := range f.all() {
		out[label] = c.Load()
	}
	return out
}

// SlowQuery is one entry of the slow-query log.
type SlowQuery struct {
	Route    string  `json:"route"`
	Query    string  `json:"query"`
	Millis   float64 `json:"millis"`
	Status   int     `json:"status"`
	UnixMS   int64   `json:"unix_ms"`
	TimedOut bool    `json:"timed_out"`
}

// slowRing keeps the last cap(buf) slow queries, oldest first. Entries
// are structs with strings, so it is the one piece of the registry
// behind a lock; only requests already slower than the threshold take
// it.
type slowRing struct {
	mu  sync.Mutex
	buf []SlowQuery // guarded by mu
}

// Metrics is the registry. The zero value is not usable; construct with
// New. Everything is safe for concurrent use. The exported groups are
// updated in place by the layer that owns the event (internal/cache,
// internal/ingest, internal/live); constructors there replace a nil
// registry with New(0), so only the Record methods — which the query
// evaluator calls on whatever FromContext returned — accept a nil
// receiver.
type Metrics struct {
	start  time.Time
	routes family[routeHist]
	ops    family[Timing]
	// filters counts, per guarded predicate shape, what the executor's
	// filter step did with the candidate pairs; see RecordFilter.
	filters family[filterSeries]
	slow    slowRing

	// Ingest is the write path: batch admission at the gate, flush
	// application, index and WAL maintenance.
	Ingest struct {
		Batches      Counter // acknowledged batches
		Observations Counter // observations in acknowledged batches
		Backpressure Counter // batches rejected with queue-full
		Flush        Timing  // drains of the pending run: one apply each, however many objects
		Publish      Timing  // epoch builds, one per publish no fault deferred; served under epoch
		Applied      Counter // observations applied to the store
		Dropped      Counter // non-monotone observations dropped at apply
		Compacted    Counter // appends merged into their predecessor unit
		// IndexMerges counts index folds that merged at least one existing
		// rung into a larger one (a fold into no rung is not a merge).
		IndexMerges                        Counter
		WALRecords, WALPages               Counter
		WALCheckpoints, WALCheckpointPages Counter
		WALQuarantined                     Counter // pages moved aside as corrupt
	}
	causes family[Counter] // write-path fault events, see RecordIngestCause

	// Cache is result-cache traffic: hits and misses at lookup, puts and
	// evictions at the adapter. Bytes and Entries are gauges the adapter
	// moves by the put/evict deltas.
	Cache struct {
		Hits, Misses, Puts      Counter
		Evictions, EvictedBytes Counter
		Bytes, Entries          Counter
	}

	// Live is the standing-query subsystem: subscription churn, publish
	// notifications reaching the registry, evaluation work, emitted and
	// dropped events, lagged streams.
	Live struct {
		Subscribes, Unsubscribes Counter
		Notifies                 Counter // epoch publishes delivered to the notifier
		Coalesced                Counter // publishes merged under notifier backpressure
		Eval                     Timing  // one round per ObserveN, n = subscriptions evaluated
		Events                   Counter // enter/leave events emitted to buffers
		Dropped                  Counter // events evicted from full subscriber buffers
		Lagged                   Counter // streams marked lagged by an eviction
	}

	// epoch tracks snapshot publication: the current sequence, how many
	// were published, and when the last one was (nanoseconds after
	// start) — /v1/metrics derives the epoch age from it.
	epoch struct {
		seq         atomic.Uint64
		publishedNS atomic.Int64
		publishes   Counter
	}

	faults family[Counter] // injected-fault trips by failpoint site
}

// New returns an empty registry keeping up to slowCap slow-query
// entries (a default of 32 when slowCap <= 0).
func New(slowCap int) *Metrics {
	if slowCap <= 0 {
		slowCap = 32
	}
	return &Metrics{start: time.Now(), slow: slowRing{buf: make([]SlowQuery, 0, slowCap)}}
}

// RecordRequest counts one served request on the route with its final
// status and latency: a family lookup and four atomic operations.
func (m *Metrics) RecordRequest(route string, status int, d time.Duration) {
	if m == nil {
		return
	}
	m.routes.get(route).observe(status, d)
}

// RecordOp counts one evaluator operator invocation with its duration.
func (m *Metrics) RecordOp(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.ops.get(name).Observe(d)
}

// filterSeries is the outcome of the executor's filter step for one
// predicate shape: pairs checked and pairs excluded at each level.
type filterSeries struct{ checked, skippedObject, skippedUnit Counter }

// RecordFilter adds one query's filter outcomes for the named predicate
// shape ("inside", "within"): candidate pairs checked, and of those the
// pairs excluded by the whole-object summaries and by the unit-level
// pass. The evaluator tallies in plain ints and calls this once per
// query and shape; the pairs that reached the kernels are the rest.
func (m *Metrics) RecordFilter(shape string, checked, skippedObject, skippedUnit int) {
	if m == nil {
		return
	}
	f := m.filters.get(shape)
	f.checked.Add(int64(checked))
	f.skippedObject.Add(int64(skippedObject))
	f.skippedUnit.Add(int64(skippedUnit))
}

// RecordIngestCause counts n write-path fault events of the named
// cause — "wal_retry", "dead_letter", "degraded_fast_fail",
// "checkpoint_failed", "epoch_publish_deferred", and
// "wal_quarantine_<kind>" for what kind of record rotted.
func (m *Metrics) RecordIngestCause(cause string, n int) {
	if m == nil {
		return
	}
	m.causes.get(cause).Add(int64(n))
}

// RecordFaultTrip counts one injected-fault trip at the named failpoint
// site — wired as the injector's OnTrip hook by -failpoints, so
// /v1/metrics shows which sites a chaos run actually exercised.
func (m *Metrics) RecordFaultTrip(site string) {
	if m == nil {
		return
	}
	m.faults.get(site).Inc()
}

// RecordEpochPublish notes that the snapshot with the given sequence
// number became the current epoch.
func (m *Metrics) RecordEpochPublish(seq uint64) {
	if m == nil {
		return
	}
	m.epoch.seq.Store(seq)
	m.epoch.publishedNS.Store(int64(time.Since(m.start)))
	m.epoch.publishes.Inc()
}

// RecordSlowQuery appends an entry to the slow-query ring.
func (m *Metrics) RecordSlowQuery(e SlowQuery) {
	if m == nil {
		return
	}
	r := &m.slow
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == cap(r.buf) {
		r.buf = r.buf[:copy(r.buf, r.buf[1:])]
	}
	r.buf = append(r.buf, e)
}

// RouteSnapshot is the JSON form of one route's counters.
type RouteSnapshot struct {
	Count     int64            `json:"count"`
	Errors    int64            `json:"errors"`
	Timeouts  int64            `json:"timeouts"`
	Statuses  map[string]int64 `json:"statuses"`
	AvgMillis float64          `json:"avg_ms"`
	MaxMillis float64          `json:"max_ms"`
	LatencyMS map[string]int64 `json:"latency_ms"`
}

// OpSnapshot is the JSON form of one operator's timings.
type OpSnapshot struct {
	Count     int64   `json:"count"`
	AvgMicros float64 `json:"avg_us"`
	MaxMicros float64 `json:"max_us"`
}

// FilterSnapshot is the JSON form of one predicate shape's filter
// outcomes. Kernel counts the pairs the filter could not exclude, so
// kernel / checked is the share of attempted pairs that cost a Section 5
// kernel run.
type FilterSnapshot struct {
	Checked       int64 `json:"checked"`
	SkippedObject int64 `json:"skipped_object"`
	SkippedUnit   int64 `json:"skipped_unit"`
	Kernel        int64 `json:"kernel"`
}

// IngestSnapshot is the JSON form of the write-path counters.
type IngestSnapshot struct {
	Batches            int64   `json:"batches"`
	Observations       int64   `json:"observations"`
	Backpressure       int64   `json:"backpressure"`
	Flushes            int64   `json:"flushes"`
	Applied            int64   `json:"applied"`
	DroppedNonMonotone int64   `json:"dropped_non_monotone"`
	Compacted          int64   `json:"compacted"`
	AvgFlushMillis     float64 `json:"avg_flush_ms"`
	MaxFlushMillis     float64 `json:"max_flush_ms"`
	IndexMerges        int64   `json:"index_merges"`
	WALRecords         int64   `json:"wal_records"`
	WALPages           int64   `json:"wal_pages"`
	// Fault-path counters.
	WALCheckpoints      int64            `json:"wal_checkpoints"`
	WALCheckpointPages  int64            `json:"wal_checkpoint_pages"`
	WALQuarantinedPages int64            `json:"wal_quarantined_pages"`
	Causes              map[string]int64 `json:"causes"`
}

// CacheSnapshot is the JSON form of the result-cache counters.
type CacheSnapshot struct {
	Hits         int64   `json:"hits"`
	Misses       int64   `json:"misses"`
	Puts         int64   `json:"puts"`
	Evictions    int64   `json:"evictions"`
	EvictedBytes int64   `json:"evicted_bytes"`
	Bytes        int64   `json:"bytes"`
	Entries      int64   `json:"entries"`
	HitRatio     float64 `json:"hit_ratio"`
}

// EpochSnapshot is the JSON form of the snapshot-publication state.
type EpochSnapshot struct {
	Seq        uint64  `json:"seq"`
	Publishes  int64   `json:"publishes"`
	AgeSeconds float64 `json:"age_seconds"`
	// AvgPublishMillis and MaxPublishMillis time the builds behind the
	// publishes (Ingest.Publish), one per drain that reached publish.
	AvgPublishMillis float64 `json:"avg_publish_ms"`
	MaxPublishMillis float64 `json:"max_publish_ms"`
}

// LiveSnapshot is the JSON form of the standing-query counters.
type LiveSnapshot struct {
	Subscribes    int64   `json:"subscribes"`
	Unsubscribes  int64   `json:"unsubscribes"`
	Notifies      int64   `json:"notifies"`
	Coalesced     int64   `json:"coalesced"`
	Evaluated     int64   `json:"evaluated"`
	Events        int64   `json:"events"`
	Dropped       int64   `json:"dropped"`
	Lagged        int64   `json:"lagged"`
	AvgEvalMicros float64 `json:"avg_eval_us"`
	MaxEvalMicros float64 `json:"max_eval_us"`
}

// Snapshot is the full registry state served at /v1/metrics.
type Snapshot struct {
	UptimeSeconds float64                   `json:"uptime_seconds"`
	Requests      map[string]RouteSnapshot  `json:"requests"`
	Operators     map[string]OpSnapshot     `json:"operators"`
	Filters       map[string]FilterSnapshot `json:"filters"` // by predicate shape; empty until a filtered query ran
	SlowQueries   []SlowQuery               `json:"slow_queries"`
	Ingest        IngestSnapshot            `json:"ingest"`
	Cache         CacheSnapshot             `json:"cache"`
	Epoch         EpochSnapshot             `json:"epoch"`
	Live          LiveSnapshot              `json:"live"`
	// Faults counts injected failpoint trips by site; empty unless
	// -failpoints armed a site or a chaos run is in progress.
	Faults map[string]int64 `json:"faults,omitempty"`
}

// Snapshot copies the registry into its JSON-serialisable form, into
// fresh maps and slices. Each series is read atomically; the snapshot
// is not one cut across series, so under load a route's count may be
// one request ahead of its total.
func (m *Metrics) Snapshot() Snapshot {
	out := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      make(map[string]RouteSnapshot, len(m.routes.all())),
		Operators:     make(map[string]OpSnapshot, len(m.ops.all())),
		Filters:       make(map[string]FilterSnapshot, len(m.filters.all())),
	}
	for route, h := range m.routes.all() {
		snap := RouteSnapshot{
			Statuses:  map[string]int64{},
			MaxMillis: float64(h.maxNS.Load()) / 1e6,
			LatencyMS: make(map[string]int64, len(bucketLabels)),
		}
		for i, label := range bucketLabels {
			n := h.buckets[i].Load()
			snap.LatencyMS[label] = n
			snap.Count += n
		}
		if snap.Count > 0 {
			snap.AvgMillis = float64(h.sumNS.Load()) / float64(snap.Count) / 1e6
		}
		for code := range h.statuses {
			n := h.statuses[code].Load()
			if n == 0 {
				continue
			}
			snap.Statuses[strconv.Itoa(code)] = n
			if code >= 400 {
				snap.Errors += n
			}
		}
		snap.Timeouts = snap.Statuses["408"]
		out.Requests[route] = snap
	}
	for name, t := range m.ops.all() {
		var snap OpSnapshot
		snap.Count, snap.AvgMicros, snap.MaxMicros = t.read(1e3)
		out.Operators[name] = snap
	}
	for shape, f := range m.filters.all() {
		// Skips before checked, the reverse of RecordFilter's order, so a
		// concurrent flush cannot make kernel read negative.
		snap := FilterSnapshot{SkippedUnit: f.skippedUnit.Load(), SkippedObject: f.skippedObject.Load()}
		snap.Checked = f.checked.Load()
		snap.Kernel = snap.Checked - snap.SkippedObject - snap.SkippedUnit
		out.Filters[shape] = snap
	}

	m.slow.mu.Lock()
	out.SlowQueries = append(make([]SlowQuery, 0, len(m.slow.buf)), m.slow.buf...)
	m.slow.mu.Unlock()

	ing := &m.Ingest
	out.Ingest = IngestSnapshot{
		Batches:             ing.Batches.Load(),
		Observations:        ing.Observations.Load(),
		Backpressure:        ing.Backpressure.Load(),
		Applied:             ing.Applied.Load(),
		DroppedNonMonotone:  ing.Dropped.Load(),
		Compacted:           ing.Compacted.Load(),
		IndexMerges:         ing.IndexMerges.Load(),
		WALRecords:          ing.WALRecords.Load(),
		WALPages:            ing.WALPages.Load(),
		WALCheckpoints:      ing.WALCheckpoints.Load(),
		WALCheckpointPages:  ing.WALCheckpointPages.Load(),
		WALQuarantinedPages: ing.WALQuarantined.Load(),
		Causes:              counts(&m.causes),
	}
	out.Ingest.Flushes, out.Ingest.AvgFlushMillis, out.Ingest.MaxFlushMillis = ing.Flush.read(1e6)

	c := &m.Cache
	out.Cache = CacheSnapshot{
		Hits:         c.Hits.Load(),
		Misses:       c.Misses.Load(),
		Puts:         c.Puts.Load(),
		Evictions:    c.Evictions.Load(),
		EvictedBytes: c.EvictedBytes.Load(),
		Bytes:        c.Bytes.Load(),
		Entries:      c.Entries.Load(),
	}
	if lookups := out.Cache.Hits + out.Cache.Misses; lookups > 0 {
		out.Cache.HitRatio = float64(out.Cache.Hits) / float64(lookups)
	}

	out.Epoch = EpochSnapshot{Seq: m.epoch.seq.Load(), Publishes: m.epoch.publishes.Load()}
	if out.Epoch.Publishes > 0 {
		out.Epoch.AgeSeconds = (time.Since(m.start) - time.Duration(m.epoch.publishedNS.Load())).Seconds()
	}
	_, out.Epoch.AvgPublishMillis, out.Epoch.MaxPublishMillis = ing.Publish.read(1e6)

	l := &m.Live
	out.Live = LiveSnapshot{
		Subscribes:   l.Subscribes.Load(),
		Unsubscribes: l.Unsubscribes.Load(),
		Notifies:     l.Notifies.Load(),
		Coalesced:    l.Coalesced.Load(),
		Events:       l.Events.Load(),
		Dropped:      l.Dropped.Load(),
		Lagged:       l.Lagged.Load(),
	}
	out.Live.Evaluated, out.Live.AvgEvalMicros, out.Live.MaxEvalMicros = l.Eval.read(1e3)

	out.Faults = counts(&m.faults)
	return out
}

// --- context plumbing ---

type ctxKey struct{}

// NewContext returns a context carrying the registry, for the query
// evaluator to record operator timings against.
func NewContext(ctx context.Context, m *Metrics) context.Context {
	if m == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, m)
}

// FromContext extracts the registry, or nil when none was attached.
// The nil result is safe to call the Record methods on.
func FromContext(ctx context.Context) *Metrics {
	m, _ := ctx.Value(ctxKey{}).(*Metrics)
	return m
}
