package cache

import (
	"sync"

	"movingdb/internal/obs"
)

// DefaultBudget is the default in-memory cache size (32 MiB) and
// DefaultShards the default shard count. Sharding bounds lock
// contention: a Get touches exactly one shard mutex for a map lookup
// and two list-pointer swaps, so concurrent readers on different keys
// almost never serialise.
const (
	DefaultBudget = 32 << 20
	DefaultShards = 16
)

// entryOverhead approximates the per-entry bookkeeping bytes (map slot,
// list pointers, key strings' headers) charged against the budget on
// top of the key and value payloads.
const entryOverhead = 96

// Memory is the in-memory adapter: a sharded LRU with a byte budget
// split evenly across shards. Entries larger than a shard's budget are
// not cached at all.
type Memory struct {
	shards  []*shard     // moguard: immutable // built in NewMemory, slots never reassigned
	metrics *obs.Metrics // moguard: immutable // synchronises itself, nil-safe
}

// shard is one LRU: a map keyed by Key into an intrusive doubly-linked
// recency list, most-recent at head.
type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry // moguard: guarded by mu
	head    *entry         // moguard: guarded by mu // most recently used
	tail    *entry         // moguard: guarded by mu // eviction candidate
	bytes   int64          // moguard: guarded by mu
	budget  int64          // moguard: immutable
	hits    int64          // moguard: guarded by mu
	misses  int64          // moguard: guarded by mu
	puts    int64          // moguard: guarded by mu
	evicted int64          // moguard: guarded by mu

	metrics *obs.Metrics // moguard: immutable // synchronises itself, nil-safe
}

type entry struct {
	key        Key
	val        []byte
	size       int64
	prev, next *entry
}

// NewMemory builds the adapter with the given total byte budget and
// shard count (<= 0 selects the defaults; the shard count is rounded up
// to a power of two). metrics receives hit/miss/put/evict counters and
// is nil-safe.
func NewMemory(budget int64, shards int, metrics *obs.Metrics) *Memory {
	if budget <= 0 {
		budget = DefaultBudget
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	m := &Memory{shards: make([]*shard, n), metrics: metrics}
	per := budget / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range m.shards {
		m.shards[i] = &shard{entries: make(map[Key]*entry), budget: per, metrics: metrics}
	}
	return m
}

// Get returns the cached bytes for k, marking the entry most recently
// used. A warm hit must not allocate (TestAllocBudgets pins it at zero
// allocs/op).
//
// moguard: hotpath
func (m *Memory) Get(k Key) ([]byte, bool) {
	s := m.shards[shardOf(k, len(m.shards))]
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.misses++
		s.mu.Unlock()
		s.metrics.RecordCacheMiss()
		return nil, false
	}
	s.hits++
	s.unlinkLocked(e)
	s.pushFrontLocked(e)
	v := e.val
	s.mu.Unlock()
	s.metrics.RecordCacheHit()
	return v, true
}

// Put stores v under k, evicting least-recently-used entries until the
// shard is back inside its budget. Oversized values are dropped; a
// re-put of an existing key replaces its value.
func (m *Memory) Put(k Key, v []byte) {
	size := int64(len(v)) + int64(len(k.Route)) + int64(len(k.Query)) + entryOverhead
	s := m.shards[shardOf(k, len(m.shards))]
	if size > s.budget {
		return
	}
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.bytes += int64(len(v)) - int64(len(e.val))
		// moguard: retained Put takes ownership of v — callers hand over freshly marshaled response bytes
		e.val = v
		e.size = size
		s.unlinkLocked(e)
		s.pushFrontLocked(e)
	} else {
		e = &entry{key: k, val: v, size: size}
		// moguard: retained Put takes ownership of v — callers hand over freshly marshaled response bytes
		s.entries[k] = e
		s.pushFrontLocked(e)
		s.bytes += size
		s.puts++
		s.metricsPutLocked(len(v))
	}
	var evictedN, evictedBytes int
	for s.bytes > s.budget && s.tail != nil {
		victim := s.tail
		s.unlinkLocked(victim)
		delete(s.entries, victim.key)
		s.bytes -= victim.size
		s.evicted++
		evictedN++
		evictedBytes += len(victim.val)
	}
	s.mu.Unlock()
	if evictedN > 0 {
		s.metrics.RecordCacheEvict(evictedN, evictedBytes)
	}
}

// metricsPutLocked forwards the put to the registry. Split out so the
// registry call happens while the accounting is consistent; the
// registry locks itself. Caller holds s.mu.
func (s *shard) metricsPutLocked(valBytes int) { s.metrics.RecordCachePut(valBytes) }

// unlinkLocked removes e from the recency list. Caller holds s.mu.
func (s *shard) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFrontLocked makes e the most recently used. Caller holds s.mu.
func (s *shard) pushFrontLocked(e *entry) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// Stats aggregates the shard counters.
func (m *Memory) Stats() Stats {
	out := Stats{Shards: len(m.shards)}
	for _, s := range m.shards {
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Puts += s.puts
		out.Evictions += s.evicted
		out.Bytes += s.bytes
		out.Entries += int64(len(s.entries))
		out.Budget += s.budget
		s.mu.Unlock()
	}
	return out
}
