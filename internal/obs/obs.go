// Package obs is the observability layer of the serving stack: request
// counters, latency histograms, per-operator timings and a slow-query
// log, all behind one mutex-protected registry that handlers and the
// query evaluator feed. A snapshot of the registry is what /v1/metrics
// serves (expvar-style JSON). The package has no dependencies beyond
// the standard library so every layer — server, db, moving — may import
// it freely.
package obs

import (
	"context"
	"sync"
	"time"
)

// bucketsMS are the upper bounds (milliseconds, inclusive) of the
// latency histogram; a final overflow bucket catches everything above.
var bucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// BucketLabels names the histogram buckets in order, "le" style.
func BucketLabels() []string {
	out := make([]string, 0, len(bucketsMS)+1)
	for _, b := range bucketsMS {
		out = append(out, formatLE(b))
	}
	return append(out, "+Inf")
}

// formatLE labels a bound in whole seconds only when that is exact
// (2500 is "2500ms", not "2s").
func formatLE(b float64) string {
	ms := int(b)
	if ms%1000 == 0 {
		return itoa(ms/1000) + "s"
	}
	return itoa(ms) + "ms"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// routeStats accumulates per-route request metrics.
type routeStats struct {
	count    int64
	errors   int64 // responses with status >= 400
	timeouts int64 // 408s
	statuses map[int]int64
	totalNS  int64
	maxNS    int64
	buckets  []int64 // len(bucketsMS)+1
}

// opStats accumulates per-operator evaluation timings.
type opStats struct {
	count   int64
	totalNS int64
	maxNS   int64
}

// ingestStats accumulates write-path metrics: batch admission at the
// gate, flush application, and index/WAL maintenance.
type ingestStats struct {
	batches      int64 // acknowledged batches
	observations int64 // observations in acknowledged batches
	backpressure int64 // batches rejected with queue-full
	flushes      int64
	applied      int64 // observations applied to the store
	dropped      int64 // non-monotone observations dropped at apply
	compacted    int64 // appends merged into their predecessor unit
	flushTotalNS int64
	flushMaxNS   int64
	indexMerges  int64 // index folds that merged at least one existing rung
	walRecords   int64
	walPages     int64

	// Fault-path counters (PR 3): WAL checkpoint/quarantine volume and
	// the per-cause event map (retries, dead-letters, degraded flips,
	// fail-fast rejections, quarantine causes).
	walCheckpoints     int64
	walCheckpointPages int64
	walQuarantined     int64 // pages moved aside as corrupt
	causes             map[string]int64
}

// cacheStats accumulates result-cache traffic (PR 6): hits and misses
// at the lookup layer, puts and evictions at the adapter, plus running
// byte/entry gauges maintained from the put/evict deltas.
type cacheStats struct {
	hits         int64
	misses       int64
	puts         int64
	evictions    int64
	evictedBytes int64
	bytes        int64 // gauge: resident cached bytes
	entries      int64 // gauge: resident cached entries
}

// epochStats tracks snapshot publication (PR 6): the current epoch
// sequence, how many epochs have been published, and when the last one
// was — /v1/metrics derives the epoch age from it.
type epochStats struct {
	seq         uint64
	publishes   int64
	publishedAt time.Time
}

// liveStats accumulates the standing-query subsystem's traffic (PR 7):
// subscription churn, publish notifications reaching the registry,
// evaluation work, emitted/dropped events and lagged streams.
type liveStats struct {
	subscribes   int64
	unsubscribes int64
	notifies     int64 // epoch publishes delivered to the notifier
	coalesced    int64 // publishes merged under notifier backpressure
	evaluated    int64 // subscription evaluations run
	events       int64 // enter/leave events emitted to buffers
	dropped      int64 // events evicted from full subscriber buffers
	lagged       int64 // streams marked lagged by an eviction
	evalTotalNS  int64
	evalMaxNS    int64
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

// Metrics is the registry. The zero value is not usable; construct with
// New. All methods are safe for concurrent use and safe on a nil
// receiver (they become no-ops), so instrumented code does not need to
// guard against a missing registry.
type Metrics struct {
	mu       sync.Mutex
	start    time.Time              // moguard: immutable
	routes   map[string]*routeStats // moguard: guarded by mu
	ops      map[string]*opStats    // moguard: guarded by mu
	slow     []SlowQuery            // moguard: guarded by mu // ring buffer, slowNext is the write cursor
	slowCap  int                    // moguard: immutable
	slowNext int                    // moguard: guarded by mu
	slowLen  int                    // moguard: guarded by mu
	ingest   ingestStats            // moguard: guarded by mu
	cache    cacheStats             // moguard: guarded by mu
	epoch    epochStats             // moguard: guarded by mu
	live     liveStats              // moguard: guarded by mu
	faults   map[string]int64       // moguard: guarded by mu // injected-fault trips by failpoint site
}

// New returns an empty registry keeping up to slowCap slow-query
// entries (a default of 32 when slowCap <= 0).
func New(slowCap int) *Metrics {
	if slowCap <= 0 {
		slowCap = 32
	}
	return &Metrics{
		start:   time.Now(),
		routes:  map[string]*routeStats{},
		ops:     map[string]*opStats{},
		slow:    make([]SlowQuery, slowCap),
		slowCap: slowCap,
		faults:  map[string]int64{},
	}
}

// RecordFaultTrip counts one injected-fault trip at the named failpoint
// site — wired as the injector's OnTrip hook in faultinject builds, so
// /v1/metrics shows which sites a chaos run actually exercised.
func (m *Metrics) RecordFaultTrip(site string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults[site]++
}

// RecordRequest counts one served request on the route with its final
// status and latency.
func (m *Metrics) RecordRequest(route string, status int, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.routes[route]
	if !ok {
		rs = &routeStats{statuses: map[int]int64{}, buckets: make([]int64, len(bucketsMS)+1)}
		m.routes[route] = rs
	}
	rs.count++
	rs.statuses[status]++
	if status >= 400 {
		rs.errors++
	}
	if status == 408 {
		rs.timeouts++
	}
	ns := d.Nanoseconds()
	rs.totalNS += ns
	if ns > rs.maxNS {
		rs.maxNS = ns
	}
	ms := float64(ns) / 1e6
	slot := len(bucketsMS) // overflow
	for i, ub := range bucketsMS {
		if ms <= ub {
			slot = i
			break
		}
	}
	rs.buckets[slot]++
}

// RecordOp counts one evaluator operator invocation with its duration.
func (m *Metrics) RecordOp(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	os, ok := m.ops[name]
	if !ok {
		os = &opStats{}
		m.ops[name] = os
	}
	os.count++
	ns := d.Nanoseconds()
	os.totalNS += ns
	if ns > os.maxNS {
		os.maxNS = ns
	}
}

// RecordIngestBatch counts one acknowledged ingest batch of n
// observations.
func (m *Metrics) RecordIngestBatch(n int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingest.batches++
	m.ingest.observations += int64(n)
}

// RecordIngestBackpressure counts one batch rejected because the write
// queue was full.
func (m *Metrics) RecordIngestBackpressure() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingest.backpressure++
}

// RecordIngestFlush counts one batcher flush: how many observations
// were applied, dropped as non-monotone, or compacted into their
// predecessor unit, and how long the flush took.
func (m *Metrics) RecordIngestFlush(applied, dropped, compacted int, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingest.flushes++
	m.ingest.applied += int64(applied)
	m.ingest.dropped += int64(dropped)
	m.ingest.compacted += int64(compacted)
	ns := d.Nanoseconds()
	m.ingest.flushTotalNS += ns
	if ns > m.ingest.flushMaxNS {
		m.ingest.flushMaxNS = ns
	}
}

// RecordIndexMerge counts one index fold that merged at least one
// existing rung into a larger one (a fold of the tail alone is not a
// merge).
func (m *Metrics) RecordIndexMerge() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingest.indexMerges++
}

// RecordWALAppend counts one write-ahead log record of the given page
// footprint.
func (m *Metrics) RecordWALAppend(pages int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingest.walRecords++
	m.ingest.walPages += int64(pages)
}

// RecordWALCheckpoint counts one checkpoint record of the given page
// footprint.
func (m *Metrics) RecordWALCheckpoint(pages int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingest.walCheckpoints++
	m.ingest.walCheckpointPages += int64(pages)
}

// RecordWALQuarantine counts pages moved aside as corrupt during WAL
// recovery, keyed by what kind of record rotted.
func (m *Metrics) RecordWALQuarantine(pages int, cause string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingest.walQuarantined += int64(pages)
	m.causeLocked("wal_quarantine_"+cause, 1)
}

// RecordIngestCause counts n write-path fault events of the named
// cause — "retry", "dead_letter", "degraded_enter", "degraded_exit",
// "degraded_fast_fail", "checkpoint_error", and the quarantine causes.
func (m *Metrics) RecordIngestCause(cause string, n int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.causeLocked(cause, int64(n))
}

func (m *Metrics) causeLocked(cause string, n int64) {
	if m.ingest.causes == nil {
		m.ingest.causes = map[string]int64{}
	}
	m.ingest.causes[cause] += n
}

// RecordCacheHit counts one result served from the cache.
func (m *Metrics) RecordCacheHit() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cache.hits++
}

// RecordCacheMiss counts one lookup that had to evaluate.
func (m *Metrics) RecordCacheMiss() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cache.misses++
}

// RecordCachePut counts one result stored, growing the byte/entry
// gauges.
func (m *Metrics) RecordCachePut(bytes int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cache.puts++
	m.cache.bytes += int64(bytes)
	m.cache.entries++
}

// RecordCacheEvict counts n entries of the given total size evicted to
// stay inside the byte budget, shrinking the gauges.
func (m *Metrics) RecordCacheEvict(n, bytes int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cache.evictions += int64(n)
	m.cache.evictedBytes += int64(bytes)
	m.cache.bytes -= int64(bytes)
	m.cache.entries -= int64(n)
}

// RecordEpochPublish notes that the snapshot with the given sequence
// number became the current epoch.
func (m *Metrics) RecordEpochPublish(seq uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch.seq = seq
	m.epoch.publishes++
	m.epoch.publishedAt = time.Now()
}

// RecordLiveSubscribe counts one standing-query subscription created.
func (m *Metrics) RecordLiveSubscribe() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.live.subscribes++
}

// RecordLiveUnsubscribe counts one subscription removed.
func (m *Metrics) RecordLiveUnsubscribe() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.live.unsubscribes++
}

// RecordLiveNotify counts one epoch publish handed to the notifier;
// coalesced marks a publish merged into a neighbour because the
// notifier queue was full.
func (m *Metrics) RecordLiveNotify(coalesced bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.live.notifies++
	if coalesced {
		m.live.coalesced++
	}
}

// RecordLiveEval counts one notifier evaluation round: how many
// subscriptions were evaluated, how many events were emitted, how many
// were dropped from full buffers, and how long the round took.
func (m *Metrics) RecordLiveEval(subs, events, dropped int, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.live.evaluated += int64(subs)
	m.live.events += int64(events)
	m.live.dropped += int64(dropped)
	ns := d.Nanoseconds()
	m.live.evalTotalNS += ns
	if ns > m.live.evalMaxNS {
		m.live.evalMaxNS = ns
	}
}

// RecordLiveLagged counts one event stream marked lagged by a
// drop-oldest eviction.
func (m *Metrics) RecordLiveLagged() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.live.lagged++
}

// RecordSlowQuery appends an entry to the slow-query ring.
func (m *Metrics) RecordSlowQuery(e SlowQuery) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.slow[m.slowNext] = e
	m.slowNext = (m.slowNext + 1) % m.slowCap
	if m.slowLen < m.slowCap {
		m.slowLen++
	}
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
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Requests      map[string]RouteSnapshot `json:"requests"`
	Operators     map[string]OpSnapshot    `json:"operators"`
	SlowQueries   []SlowQuery              `json:"slow_queries"`
	Ingest        IngestSnapshot           `json:"ingest"`
	Cache         CacheSnapshot            `json:"cache"`
	Epoch         EpochSnapshot            `json:"epoch"`
	Live          LiveSnapshot             `json:"live"`
	// Faults counts injected failpoint trips by site; empty outside
	// faultinject builds and chaos runs.
	Faults map[string]int64 `json:"faults,omitempty"`
}

// Snapshot copies the registry into its JSON-serialisable form. Safe on
// a nil receiver (returns an empty snapshot).
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{Requests: map[string]RouteSnapshot{}, Operators: map[string]OpSnapshot{}, SlowQueries: []SlowQuery{}}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      make(map[string]RouteSnapshot, len(m.routes)),
		Operators:     make(map[string]OpSnapshot, len(m.ops)),
		SlowQueries:   make([]SlowQuery, 0, m.slowLen),
	}
	labels := BucketLabels()
	for route, rs := range m.routes {
		snap := RouteSnapshot{
			Count:     rs.count,
			Errors:    rs.errors,
			Timeouts:  rs.timeouts,
			Statuses:  make(map[string]int64, len(rs.statuses)),
			MaxMillis: float64(rs.maxNS) / 1e6,
			LatencyMS: make(map[string]int64, len(labels)),
		}
		if rs.count > 0 {
			snap.AvgMillis = float64(rs.totalNS) / float64(rs.count) / 1e6
		}
		for code, n := range rs.statuses {
			snap.Statuses[itoa(code)] = n
		}
		for i, label := range labels {
			snap.LatencyMS[label] = rs.buckets[i]
		}
		out.Requests[route] = snap
	}
	for name, os := range m.ops {
		snap := OpSnapshot{Count: os.count, MaxMicros: float64(os.maxNS) / 1e3}
		if os.count > 0 {
			snap.AvgMicros = float64(os.totalNS) / float64(os.count) / 1e3
		}
		out.Operators[name] = snap
	}
	// Oldest-first over the ring.
	for i := 0; i < m.slowLen; i++ {
		idx := (m.slowNext - m.slowLen + i + m.slowCap) % m.slowCap
		out.SlowQueries = append(out.SlowQueries, m.slow[idx])
	}
	ing := m.ingest
	out.Ingest = IngestSnapshot{
		Batches:             ing.batches,
		Observations:        ing.observations,
		Backpressure:        ing.backpressure,
		Flushes:             ing.flushes,
		Applied:             ing.applied,
		DroppedNonMonotone:  ing.dropped,
		Compacted:           ing.compacted,
		MaxFlushMillis:      float64(ing.flushMaxNS) / 1e6,
		IndexMerges:         ing.indexMerges,
		WALRecords:          ing.walRecords,
		WALPages:            ing.walPages,
		WALCheckpoints:      ing.walCheckpoints,
		WALCheckpointPages:  ing.walCheckpointPages,
		WALQuarantinedPages: ing.walQuarantined,
		Causes:              make(map[string]int64, len(ing.causes)),
	}
	for cause, n := range ing.causes {
		out.Ingest.Causes[cause] = n
	}
	if ing.flushes > 0 {
		out.Ingest.AvgFlushMillis = float64(ing.flushTotalNS) / float64(ing.flushes) / 1e6
	}
	out.Cache = CacheSnapshot{
		Hits:         m.cache.hits,
		Misses:       m.cache.misses,
		Puts:         m.cache.puts,
		Evictions:    m.cache.evictions,
		EvictedBytes: m.cache.evictedBytes,
		Bytes:        m.cache.bytes,
		Entries:      m.cache.entries,
	}
	if lookups := m.cache.hits + m.cache.misses; lookups > 0 {
		out.Cache.HitRatio = float64(m.cache.hits) / float64(lookups)
	}
	out.Epoch = EpochSnapshot{Seq: m.epoch.seq, Publishes: m.epoch.publishes}
	if !m.epoch.publishedAt.IsZero() {
		out.Epoch.AgeSeconds = time.Since(m.epoch.publishedAt).Seconds()
	}
	out.Live = LiveSnapshot{
		Subscribes:    m.live.subscribes,
		Unsubscribes:  m.live.unsubscribes,
		Notifies:      m.live.notifies,
		Coalesced:     m.live.coalesced,
		Evaluated:     m.live.evaluated,
		Events:        m.live.events,
		Dropped:       m.live.dropped,
		Lagged:        m.live.lagged,
		MaxEvalMicros: float64(m.live.evalMaxNS) / 1e3,
	}
	if m.live.evaluated > 0 {
		out.Live.AvgEvalMicros = float64(m.live.evalTotalNS) / float64(m.live.evaluated) / 1e3
	}
	if len(m.faults) > 0 {
		out.Faults = make(map[string]int64, len(m.faults))
		for site, n := range m.faults {
			out.Faults[site] = n
		}
	}
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
// The nil result is safe to call methods on.
func FromContext(ctx context.Context) *Metrics {
	m, _ := ctx.Value(ctxKey{}).(*Metrics)
	return m
}
