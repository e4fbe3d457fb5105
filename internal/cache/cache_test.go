package cache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"movingdb/internal/obs"
)

func key(q string, epoch uint64) Key { return Key{Route: "/v1/window", Query: q, Epoch: epoch} }

func TestMemoryGetPut(t *testing.T) {
	reg := obs.New(0)
	m := NewMemory(1<<20, 4, reg)
	k := key("x1=0&x2=1", 7)
	if _, ok := m.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	m.Put(k, []byte("result"))
	v, ok := m.Get(k)
	if !ok || !bytes.Equal(v, []byte("result")) {
		t.Fatalf("get = %q, %v", v, ok)
	}
	// The same query under another epoch is a different key — epoch
	// advance invalidates by miss, not by purge.
	if _, ok := m.Get(key("x1=0&x2=1", 8)); ok {
		t.Fatal("stale hit across epochs")
	}
	st := reg.Snapshot().Cache
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemoryReplace(t *testing.T) {
	reg := obs.New(0)
	m := NewMemory(1<<20, 1, reg)
	k := key("q", 1)
	m.Put(k, []byte("old"))
	m.Put(k, []byte("newer value"))
	v, ok := m.Get(k)
	if !ok || string(v) != "newer value" {
		t.Fatalf("replace: %q %v", v, ok)
	}
	if st := reg.Snapshot().Cache; st.Entries != 1 || st.Puts != 1 {
		t.Fatalf("entries = %d, puts = %d after replace", st.Entries, st.Puts)
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	// One shard sized for exactly three entries (all keys here have
	// equal-length queries, so every entry charges the same), then
	// insert 8: the oldest must go, the newest stay, and the byte gauge
	// must respect the budget.
	val := bytes.Repeat([]byte("v"), 100)
	probe := key("q00", 1)
	size := int64(len(val)+len(probe.Route)+len(probe.Query)) + entryOverhead
	budget := 3*size + size/2
	reg := obs.New(0)
	m := NewMemory(budget, 1, reg)
	for i := 0; i < 8; i++ {
		m.Put(key(fmt.Sprintf("q%02d", i), 1), val)
	}
	st := reg.Snapshot().Cache
	if st.Entries != 3 || st.Bytes != 3*int64(len(val)) || st.Entries*size > budget {
		t.Fatalf("resident %d entries / %d value bytes, want 3 / %d inside budget %d", st.Entries, st.Bytes, 3*len(val), budget)
	}
	if st.Evictions != 5 || st.EvictedBytes != 5*int64(len(val)) {
		t.Fatalf("evictions = %d (%d bytes), want 5 (capacity 3, 8 inserts)", st.Evictions, st.EvictedBytes)
	}
	if _, ok := m.Get(key("q00", 1)); ok {
		t.Fatal("oldest entry survived past budget")
	}
	if _, ok := m.Get(key("q07", 1)); !ok {
		t.Fatal("newest entry evicted")
	}
	// Recency, not insertion order: the cache holds q05..q07. Touch q05
	// (the coldest by insertion), then add two more — the untouched
	// q06/q07 must be the victims, not the freshly used q05.
	if _, ok := m.Get(key("q05", 1)); !ok {
		t.Fatal("q05 missing before recency check")
	}
	m.Put(key("q08", 1), val)
	m.Put(key("q09", 1), val)
	if _, ok := m.Get(key("q05", 1)); !ok {
		t.Fatal("recently used entry evicted before older ones")
	}
	for _, q := range []string{"q06", "q07"} {
		if _, ok := m.Get(key(q, 1)); ok {
			t.Fatalf("untouched %s outlived a recently used peer", q)
		}
	}
}

// TestMemoryRetiresOldEpochs: far inside the byte budget, a Put drops
// the entries of epochs older than the newest the shard has been handed
// — from the tail, counted as evictions — while a frozen epoch (one
// value forever, 0 included) retires nothing, and an old-epoch entry a
// straggler refreshed to the head is met on a later Put.
func TestMemoryRetiresOldEpochs(t *testing.T) {
	val := bytes.Repeat([]byte("v"), 100)
	reg := obs.New(0)
	m := NewMemory(1<<20, 1, reg)
	for i := 0; i < 50; i++ {
		m.Put(key(fmt.Sprintf("q%02d", i), 0), val)
	}
	if st := reg.Snapshot().Cache; st.Entries != 50 || st.Evictions != 0 {
		t.Fatalf("frozen epoch: %d entries, %d evictions, want 50, 0", st.Entries, st.Evictions)
	}
	m.Put(key("q00", 1), val)
	st := reg.Snapshot().Cache
	if st.Entries != 1 || st.Evictions != 50 || st.EvictedBytes != 50*int64(len(val)) || st.Bytes != int64(len(val)) {
		t.Fatalf("after epoch 1's first put: %+v, want 1 entry, 50 evictions", st)
	}
	if _, ok := m.Get(key("q00", 1)); !ok {
		t.Fatal("the current epoch's entry was retired")
	}
	// A straggler still pinned to epoch 1 stores a result after epoch 2
	// arrived: it lands at the head, is not dropped while live entries
	// sit behind it, and goes once it has sunk to the tail.
	m.Put(key("a", 2), val)
	m.Put(key("late", 1), val)
	if _, ok := m.Get(key("late", 1)); !ok {
		t.Fatal("a straggler's entry was dropped ahead of the live tail")
	}
	m.Get(key("a", 2))
	m.Put(key("b", 2), val)
	if _, ok := m.Get(key("late", 1)); ok {
		t.Fatal("a retired entry at the tail outlived a put")
	}
	for _, q := range []string{"a", "b"} {
		if _, ok := m.Get(key(q, 2)); !ok {
			t.Fatalf("live entry %s was dropped", q)
		}
	}
}

func TestMemoryOversizedValueNotCached(t *testing.T) {
	m := NewMemory(256, 1, nil)
	k := key("big", 1)
	m.Put(k, bytes.Repeat([]byte("x"), 1024))
	if _, ok := m.Get(k); ok {
		t.Fatal("oversized value cached")
	}
}

func TestMemoryMetrics(t *testing.T) {
	reg := obs.New(0)
	m := NewMemory(1<<20, 2, reg)
	k := key("q", 3)
	m.Get(k)
	m.Put(k, []byte("abc"))
	m.Get(k)
	snap := reg.Snapshot()
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 || snap.Cache.Puts != 1 {
		t.Fatalf("obs cache counters = %+v", snap.Cache)
	}
	if snap.Cache.Bytes != 3 || snap.Cache.Entries != 1 {
		t.Fatalf("obs cache gauges = %+v", snap.Cache)
	}
}

func TestLoaderSingleflight(t *testing.T) {
	m := NewMemory(1<<20, 4, nil)
	l := NewLoader(m)
	k := key("herd", 1)
	var computes atomic.Int64
	gate := make(chan struct{})
	const herd = 32
	var wg sync.WaitGroup
	results := make([][]byte, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := l.Do(k, func() ([]byte, error) {
				<-gate // hold the flight open until the whole herd arrived
				computes.Add(1)
				return []byte("computed"), nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	// With the gate, at most a handful of callers can start before the
	// first flight registers; the herd must collapse to far fewer
	// computations than callers — and with the gate closed before any
	// compute finishes, to exactly one for all callers that arrived
	// before the flight settled.
	if n := computes.Load(); n != 1 {
		t.Fatalf("computes = %d, want 1", n)
	}
	for i, v := range results {
		if string(v) != "computed" {
			t.Fatalf("caller %d got %q", i, v)
		}
	}
	if v, hit, _ := l.Do(k, func() ([]byte, error) { return nil, errors.New("must not run") }); !hit || string(v) != "computed" {
		t.Fatalf("post-herd lookup: hit=%v v=%q", hit, v)
	}
}

func TestLoaderErrorNotCached(t *testing.T) {
	l := NewLoader(NewMemory(1<<20, 1, nil))
	k := key("err", 1)
	boom := errors.New("boom")
	if _, _, err := l.Do(k, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := l.Do(k, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(v) != "ok" {
		t.Fatalf("retry after error: %q %v %v", v, hit, err)
	}
}

func TestLoaderNilCacheStillCoalesces(t *testing.T) {
	l := NewLoader(nil)
	k := key("nil", 1)
	v, hit, err := l.Do(k, func() ([]byte, error) { return []byte("x"), nil })
	if err != nil || hit || string(v) != "x" {
		t.Fatalf("nil cache Do: %q %v %v", v, hit, err)
	}
	// Never a hit: nothing is stored.
	if _, hit, _ := l.Do(k, func() ([]byte, error) { return []byte("y"), nil }); hit {
		t.Fatal("hit with nil cache")
	}
}

func TestLoaderComputePanicSettlesWaiters(t *testing.T) {
	l := NewLoader(NewMemory(1<<20, 1, nil))
	k := key("panic", 1)
	started := make(chan struct{})
	release := make(chan struct{})
	computerDone := make(chan struct{})
	go func() {
		defer close(computerDone)
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the computing caller")
			}
		}()
		_, _, _ = l.Do(k, func() ([]byte, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started // flight is registered and computing
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := l.Do(k, func() ([]byte, error) {
			// Only runs if this caller raced past the settled flight
			// and started its own; that is fine — return a value.
			return []byte("raced"), nil
		})
		waiterDone <- err
	}()
	close(release) // let the panic fire; settle must wake the waiter
	waiterErr := <-waiterDone
	<-computerDone
	// The waiter either piggybacked on the panicked flight (and must see
	// ErrComputePanicked, not hang) or arrived after settlement and
	// computed its own value (nil error).
	if waiterErr != nil && !errors.Is(waiterErr, ErrComputePanicked) {
		t.Fatalf("waiter err = %v", waiterErr)
	}
}

func TestShardDistribution(t *testing.T) {
	m := NewMemory(1<<20, 8, nil)
	for i := 0; i < 512; i++ {
		m.Put(key(fmt.Sprintf("q%d", i), uint64(i%5)), []byte("v"))
	}
	// Every shard should hold something: maphash spreads keys.
	empty := 0
	for _, s := range m.shards {
		s.mu.Lock()
		if len(s.entries) == 0 {
			empty++
		}
		s.mu.Unlock()
	}
	if empty > 0 {
		t.Fatalf("%d of %d shards empty after 512 inserts", empty, len(m.shards))
	}
}
