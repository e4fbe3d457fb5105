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

// probationShare is the fraction of a shard's budget, as a divisor,
// that entries no Get has returned yet may hold. Half: query_repeat's
// warm-up set fills at most 660 KiB of a 2 MiB shard (11 seeds), so a
// half leaves a 1.55× margin, while a quarter is exceeded on 10 of them.
const probationShare = 2

// Memory is the in-memory adapter: a sharded segmented LRU with a byte
// budget split evenly across shards. Each shard keeps two recency
// lists: probation holds entries no Get has returned yet, protected the
// ones that have been read. Unread entries may hold at most
// 1/probationShare of a shard, so a stream of answers nobody asks for
// twice cycles through probation and leaves the read working set
// alone. Entries larger than a shard's budget are not cached at all.
// Epochs only advance, and a reader pins the current one, so an entry
// keyed by an epoch older than the newest a shard has been handed can
// never be asked for again; Put drops such entries from either list's
// tail instead of letting their bodies wait for byte pressure.
type Memory struct {
	shards []*shard // immutable; built in NewMemory, slots never reassigned
}

// shard is one segmented LRU: a map keyed by Key into two intrusive
// doubly-linked recency lists.
type shard struct {
	mu        sync.Mutex
	entries   map[Key]*entry // guarded by mu
	probation segment        // guarded by mu; never read since put
	protected segment        // guarded by mu; read at least once
	newest    uint64         // guarded by mu; highest Key.Epoch Put has seen
	budget    int64          // immutable

	// metrics.Cache holds the put/evict counts and the byte/entry
	// gauges (the Loader counts hits and misses); its counters are
	// atomic and need no mu.
	metrics *obs.Metrics // immutable; synchronises itself, never nil

	// The fields above take 88 bytes; padding the struct to 128 keeps
	// each shard's lock and lists off its neighbours' cache lines.
	_ [40]byte // unguarded: padding, never accessed
}

// segment is one recency list, most recent at head, and the bytes its
// entries are charged.
type segment struct {
	head, tail *entry
	bytes      int64
}

type entry struct {
	key        Key
	val        []byte
	size       int64
	read       bool // in protected, not probation
	prev, next *entry
}

// NewMemory builds the adapter with the given total byte budget and
// shard count (<= 0 selects the defaults; the shard count is rounded up
// to a power of two). metrics receives the put/evict counters and
// byte/entry gauges; nil keeps them in a private registry. Hits and
// misses are the Loader's to count: it knows what a lookup is.
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

// Get returns the cached bytes for k and makes the entry the most
// recently used in protected, moving it there from probation on its
// first hit. A warm hit must not allocate (TestAllocBudgets pins it at
// zero allocs/op).
func (m *Memory) Get(k Key) ([]byte, bool) {
	s := m.shards[k.Hash()&uint64(len(m.shards)-1)]
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.segmentLocked(e).unlink(e)
	e.read = true
	s.protected.pushFront(e)
	v := e.val
	s.mu.Unlock()
	return v, true
}

// Put stores v under k: a new key at the head of probation, a re-put
// key replaces its value and moves to the head of its own list. It then
// evicts (victimLocked) until no rule asks for more. Retired entries —
// older than the newest epoch this shard has been handed, learned from
// the keys, so the port needs no epoch signal — are never touched
// again, so they gather at the tails and the sweep costs what it
// evicts; one that a straggling reader of an old epoch refreshed is
// simply met later. A frozen server's single epoch retires nothing.
// Oversized values are dropped. Put takes ownership of v: callers hand
// over freshly marshaled response bytes.
func (m *Memory) Put(k Key, v []byte) {
	size := int64(len(v)) + int64(len(k.Route)) + int64(len(k.Query)) + entryOverhead
	s := m.shards[k.Hash()&uint64(len(m.shards)-1)]
	if size > s.budget {
		return
	}
	s.mu.Lock()
	s.newest = max(s.newest, k.Epoch)
	e, ok := s.entries[k]
	if ok {
		s.metrics.Cache.Bytes.Add(int64(len(v)) - int64(len(e.val)))
		seg := s.segmentLocked(e)
		seg.unlink(e)
		e.val, e.size = v, size
		seg.pushFront(e)
	} else {
		e = &entry{key: k, val: v, size: size}
		s.entries[k] = e
		s.probation.pushFront(e)
		s.metrics.Cache.Puts.Inc()
		s.metrics.Cache.Bytes.Add(int64(len(v)))
		s.metrics.Cache.Entries.Inc()
	}
	var evictedN, evictedBytes int64
	for victim := s.victimLocked(e); victim != nil; victim = s.victimLocked(e) {
		s.segmentLocked(victim).unlink(victim)
		delete(s.entries, victim.key)
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

// victimLocked returns the entry Put must evict next, or nil. The rules,
// in order: a retired tail of either list; probation's tail while
// probation is over its share; while the shard is over budget,
// probation's tail, then protected's. put, the entry just stored, is
// never its own victim: it is alone in its list when it is a tail.
// Caller holds s.mu.
func (s *shard) victimLocked(put *entry) *entry {
	unread, read := s.probation.tail, s.protected.tail
	if unread == put {
		unread = nil
	}
	if read == put {
		read = nil
	}
	over := s.probation.bytes+s.protected.bytes > s.budget
	switch {
	case unread != nil && unread.key.Epoch < s.newest:
		return unread
	case read != nil && read.key.Epoch < s.newest:
		return read
	case unread != nil && (over || s.probation.bytes > s.budget/probationShare):
		return unread
	case read != nil && over:
		return read
	}
	return nil
}

// segmentLocked returns the list e is linked into. Caller holds s.mu.
func (s *shard) segmentLocked(e *entry) *segment {
	if e.read {
		return &s.protected
	}
	return &s.probation
}

// unlink removes e from the list and its bytes from the list's charge.
func (l *segment) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.bytes -= e.size
}

// pushFront makes e the list's most recently used and charges its bytes.
func (l *segment) pushFront(e *entry) {
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.bytes += e.size
}
