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

// entryOverhead approximates the per-entry bookkeeping bytes charged
// against the budget on top of the key's strings and the value: the
// 104-byte Key is held twice, in the entry (with the value header and
// list pointers, a 160-byte allocation) and in the map slot.
const entryOverhead = 256

// Memory is the in-memory adapter: a sharded LRU with a byte budget
// split evenly across shards. Entries larger than a shard's budget are
// not cached at all. Epochs only advance, and a reader pins the current
// one, so an entry keyed by an epoch older than the newest a shard has
// been handed can never be asked for again; Put drops such entries from
// the LRU tail instead of letting their bodies wait for byte pressure.
type Memory struct {
	shards []*shard // moguard: immutable // built in NewMemory, slots never reassigned
}

// shard is one LRU: a map keyed by Key into an intrusive doubly-linked
// recency list, most-recent at head.
type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry // moguard: guarded by mu
	head    *entry         // moguard: guarded by mu // most recently used
	tail    *entry         // moguard: guarded by mu // eviction candidate
	bytes   int64          // moguard: guarded by mu
	newest  uint64         // moguard: guarded by mu // highest Key.Epoch Put has seen
	budget  int64          // moguard: immutable

	// metrics.Cache holds the only hit/miss/put/evict counts and the
	// byte/entry gauges; its counters are atomic and need no mu.
	metrics *obs.Metrics // moguard: immutable // synchronises itself, never nil
}

type entry struct {
	key        Key
	val        []byte
	size       int64
	prev, next *entry
}

// NewMemory builds the adapter with the given total byte budget and
// shard count (<= 0 selects the defaults; the shard count is rounded up
// to a power of two). metrics receives the hit/miss/put/evict counters
// and byte/entry gauges; nil keeps them in a private registry.
func NewMemory(budget int64, shards int, metrics *obs.Metrics) *Memory {
	if metrics == nil {
		metrics = obs.New(0)
	}
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
	m := &Memory{shards: make([]*shard, n)}
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
func (m *Memory) Get(k Key) ([]byte, bool) {
	s := m.shards[k.Hash()&uint64(len(m.shards)-1)]
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		s.metrics.Cache.Misses.Inc()
		return nil, false
	}
	s.unlinkLocked(e)
	s.pushFrontLocked(e)
	v := e.val
	s.mu.Unlock()
	s.metrics.Cache.Hits.Inc()
	return v, true
}

// Put stores v under k, then evicts from the LRU tail while the shard is
// over its budget or the tail's epoch is retired (older than the newest
// this shard has been handed — learned from the keys, so the port needs
// no epoch signal). Retired entries are never touched again, so they
// gather at the tail and the sweep costs what it evicts; one that a
// straggling reader of an old epoch refreshed is simply met later. A
// frozen server's single epoch retires nothing. Oversized values are
// dropped; a re-put of an existing key replaces its value. Put takes
// ownership of v: callers hand over freshly marshaled response bytes.
func (m *Memory) Put(k Key, v []byte) {
	size := int64(len(v)) + int64(len(k.Route)) + int64(len(k.Query)) + entryOverhead
	s := m.shards[k.Hash()&uint64(len(m.shards)-1)]
	if size > s.budget {
		return
	}
	s.mu.Lock()
	s.newest = max(s.newest, k.Epoch)
	if e, ok := s.entries[k]; ok {
		s.bytes += int64(len(v)) - int64(len(e.val))
		e.val = v
		e.size = size
		s.unlinkLocked(e)
		s.pushFrontLocked(e)
	} else {
		e = &entry{key: k, val: v, size: size}
		s.entries[k] = e
		s.pushFrontLocked(e)
		s.bytes += size
		s.metrics.Cache.Puts.Inc()
		s.metrics.Cache.Bytes.Add(int64(len(v)))
		s.metrics.Cache.Entries.Inc()
	}
	var evictedN, evictedBytes int64
	for s.tail != nil && (s.bytes > s.budget || s.tail.key.Epoch < s.newest) {
		victim := s.tail
		s.unlinkLocked(victim)
		delete(s.entries, victim.key)
		s.bytes -= victim.size
		evictedN++
		evictedBytes += int64(len(victim.val))
	}
	s.mu.Unlock()
	if evictedN > 0 {
		c := &s.metrics.Cache
		c.Evictions.Add(evictedN)
		c.EvictedBytes.Add(evictedBytes)
		c.Bytes.Add(-evictedBytes)
		c.Entries.Add(-evictedN)
	}
}

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
