package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	if st := reg.Snapshot().Cache; st.Puts != 1 || st.Entries != 1 {
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

// unreadBytes is the charge of probation, less the entry just put under
// k: the one unread entry the half-budget rule does not cover.
func unreadBytes(m *Memory, k Key) int64 {
	s := m.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.probation.bytes
	if e, ok := s.entries[k]; ok && !e.read {
		n -= e.size
	}
	return n
}

func TestMemoryLRUEviction(t *testing.T) {
	// One shard sized for six equal entries (equal-length queries), so
	// probation, held to half of it, has room for three.
	val := bytes.Repeat([]byte("v"), 100)
	probe := key("q00", 1)
	size := int64(len(val)+len(probe.Route)+len(probe.Query)) + entryOverhead
	budget := 6*size + size/2
	reg := obs.New(0)
	m := NewMemory(budget, 1, reg)
	put := func(q string) {
		t.Helper()
		k := key(q, 1)
		m.Put(k, val)
		if n := unreadBytes(m, k); n > budget/probationShare {
			t.Fatalf("after put %s: %d unread bytes besides it, over half of %d", q, n, budget)
		}
	}
	// Eight puts nobody reads: only the newest three stay.
	for i := 0; i < 8; i++ {
		put(fmt.Sprintf("q%02d", i))
	}
	st := reg.Snapshot().Cache
	if st.Entries != 3 || st.Bytes != 3*int64(len(val)) {
		t.Fatalf("resident %d entries / %d value bytes, want 3 / %d", st.Entries, st.Bytes, 3*len(val))
	}
	if st.Evictions != 5 || st.EvictedBytes != 5*int64(len(val)) {
		t.Fatalf("evictions = %d (%d bytes), want 5 (probation holds 3, 8 inserts)", st.Evictions, st.EvictedBytes)
	}
	if _, ok := m.Get(key("q04", 1)); ok {
		t.Fatal("an older unread entry survived past probation's half")
	}
	// Read entries are protected: fill the shard with six of them. Their
	// recency, not their insertion order, decides: touch r00, the coldest
	// by insertion.
	for i := 0; i < 6; i++ {
		q := fmt.Sprintf("r%02d", i)
		put(q)
		if _, ok := m.Get(key(q, 1)); !ok {
			t.Fatalf("%s missing right after its put", q)
		}
	}
	if _, ok := m.Get(key("r00", 1)); !ok {
		t.Fatal("r00 missing before the recency check")
	}
	// q05..q07 were unread, so byte pressure took them before any read
	// entry.
	for _, q := range []string{"q05", "q06", "q07"} {
		if _, ok := m.Get(key(q, 1)); ok {
			t.Fatalf("unread %s outlived read entries under byte pressure", q)
		}
	}
	// u00 is alone in probation, so over budget it is the read r01 that
	// goes; u01 then evicts u00, unread before read.
	put("u00")
	put("u01")
	if st := reg.Snapshot().Cache; st.Entries*size > budget {
		t.Fatalf("%d entries of %d bytes over budget %d", st.Entries, size, budget)
	}
	for q, want := range map[string]bool{"r01": false, "u00": false, "r00": true, "r02": true, "r05": true, "u01": true} {
		if _, ok := m.Get(key(q, 1)); ok != want {
			t.Fatalf("%s resident = %v, want %v", q, ok, want)
		}
	}
}

// TestMemoryScanResistant: a read working set of half the budget
// survives a flood of unread puts ten times the budget.
func TestMemoryScanResistant(t *testing.T) {
	val := bytes.Repeat([]byte("v"), 500)
	size := int64(len(val)+len(key("w00", 1).Route)+3) + entryOverhead
	const budget = 64 << 10
	m := NewMemory(budget, 1, nil)
	var hot []Key
	for i := 0; int64(i+1)*size <= budget/2; i++ {
		k := key(fmt.Sprintf("w%02d", i), 1)
		m.Put(k, val)
		if _, ok := m.Get(k); !ok {
			t.Fatalf("%s missing right after its put", k.Query)
		}
		hot = append(hot, k)
	}
	for i := int64(0); i*size < 10*budget; i++ {
		m.Put(key(fmt.Sprintf("scan%d", i), 1), val)
	}
	for _, k := range hot {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("read entry %s of %d evicted by unread puts", k.Query, len(hot))
		}
	}
}

// sLRU is the reference the model test holds one shard to: one slice,
// most recently touched first, each entry flagged read or unread, and
// the four eviction rules written out plainly. Filtered by the flag,
// the slice is each list's recency order.
type sLRU struct {
	budget  int64
	newest  uint64
	entries []modelEntry
}

type modelEntry struct {
	k       Key
	n, size int64 // value length, charged bytes
	read    bool
}

func (r *sLRU) index(k Key) int {
	return slices.IndexFunc(r.entries, func(e modelEntry) bool { return e.k == k })
}

func (r *sLRU) get(k Key) bool {
	i := r.index(k)
	if i < 0 {
		return false
	}
	e := r.entries[i]
	e.read = true
	r.entries = append([]modelEntry{e}, slices.Delete(r.entries, i, i+1)...)
	return true
}

func (r *sLRU) put(k Key, n int64) {
	e := modelEntry{k: k, n: n, size: n + int64(len(k.Route)+len(k.Query)) + entryOverhead}
	if e.size > r.budget {
		return
	}
	r.newest = max(r.newest, k.Epoch)
	if i := r.index(k); i >= 0 {
		e.read = r.entries[i].read
		r.entries = slices.Delete(r.entries, i, i+1)
	}
	r.entries = append([]modelEntry{e}, r.entries...)
	for {
		unread, read := -1, -1 // each list's tail, never index 0: the entry just put
		var unreadBytes, all int64
		for i, e := range r.entries {
			all += e.size
			switch {
			case e.read && i > 0:
				read = i
			case !e.read:
				unreadBytes += e.size
				if i > 0 {
					unread = i
				}
			}
		}
		retired := func(i int) bool { return i >= 0 && r.entries[i].k.Epoch < r.newest }
		var victim int
		switch {
		case retired(unread):
			victim = unread
		case retired(read):
			victim = read
		case unread >= 0 && (all > r.budget || unreadBytes > r.budget/probationShare):
			victim = unread
		case read >= 0 && all > r.budget:
			victim = read
		default:
			return
		}
		r.entries = slices.Delete(r.entries, victim, victim+1)
	}
}

// TestMemoryMatchesModel drives one shard and the slice reference with
// the same seeded Get / Put / replace / epoch-advance sequence and
// compares the resident keys and the byte and entry gauges after every
// step.
func TestMemoryMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := obs.New(0)
		const budget = 4000
		m := NewMemory(budget, 1, reg)
		ref := &sLRU{budget: budget}
		epoch := uint64(1)
		for step := 0; step < 2000; step++ {
			k := key(fmt.Sprintf("q%d", rng.Intn(12)), epoch)
			op := ""
			switch r := rng.Intn(20); {
			case r < 8:
				op = "get"
				if _, got := m.Get(k); got != ref.get(k) {
					t.Fatalf("seed %d step %d: get %s@%d = %v, reference %v", seed, step, k.Query, k.Epoch, got, !got)
				}
			case r < 17:
				op = "put"
				if r >= 15 && len(ref.entries) > 0 { // replace a resident entry
					op = "replace"
					k = ref.entries[rng.Intn(len(ref.entries))].k
				} else if r == 14 && epoch > 1 { // a straggler of the previous epoch
					op = "straggler put"
					k.Epoch--
				}
				n := rng.Int63n(600)
				m.Put(k, make([]byte, n))
				ref.put(k, n)
			default:
				op = "advance"
				epoch++
			}
			s := m.shards[0]
			s.mu.Lock()
			var got []string
			for k := range s.entries {
				got = append(got, fmt.Sprint(k.Query, "@", k.Epoch))
			}
			s.mu.Unlock()
			var want []string
			var valBytes int64
			for _, e := range ref.entries {
				want = append(want, fmt.Sprint(e.k.Query, "@", e.k.Epoch))
				valBytes += e.n
			}
			slices.Sort(got)
			slices.Sort(want)
			st := reg.Snapshot().Cache
			if !slices.Equal(got, want) || st.Bytes != valBytes || st.Entries != int64(len(want)) {
				t.Fatalf("seed %d step %d (%s %s@%d): resident %v, %d value bytes, %d entries; reference %v, %d, %d",
					seed, step, op, k.Query, k.Epoch, got, st.Bytes, st.Entries, want, valBytes, len(want))
			}
		}
	}
}

// TestMemoryRetiresOldEpochs: far inside the byte budget, a Put drops
// the entries of epochs older than the newest the shard has been handed
// — from either list's tail, counted as evictions — while a frozen
// epoch (one value forever, 0 included) retires nothing, and an
// old-epoch entry a straggler refreshed to the head is met on a later
// Put.
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
	// A retired entry at protected's tail goes even while probation's
	// tail is live: the sweep checks both lists.
	m.Put(key("x", 2), val)
	m.Put(key("old", 1), val)
	m.Get(key("old", 1))
	m.Get(key("a", 2))
	m.Get(key("b", 2))
	m.Put(key("y", 2), val)
	if _, ok := m.Get(key("old", 1)); ok {
		t.Fatal("a retired read entry at protected's tail outlived a put")
	}
	for _, q := range []string{"x", "y"} {
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
	if snap.Cache.Puts != 1 {
		t.Fatalf("obs cache counters = %+v", snap.Cache)
	}
	// Lookups are the Loader's to count (TestLoaderCountsLookups): a
	// Memory that counted them too would count every miss twice.
	if snap.Cache.Hits != 0 || snap.Cache.Misses != 0 {
		t.Fatalf("Memory counted lookups: %+v", snap.Cache)
	}
	if snap.Cache.Bytes != 3 || snap.Cache.Entries != 1 {
		t.Fatalf("obs cache gauges = %+v", snap.Cache)
	}
}

// newTestLoader builds a Loader over c counting into reg, and checks
// when the test ends that no flight is left registered: every flight a
// Do starts is unregistered by the time that Do returns.
func newTestLoader(t *testing.T, c ResultCache, reg *obs.Metrics) *Loader {
	l := NewLoader(c, reg)
	t.Cleanup(func() {
		if n := inflightLen(l); n != 0 {
			t.Errorf("%d flights registered after the last Do, want 0", n)
		}
	})
	return l
}

// inflightLen reads how many flights l has registered.
func inflightLen(l *Loader) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.inflight)
}

func TestLoaderSingleflight(t *testing.T) {
	m := NewMemory(1<<20, 4, nil)
	l := newTestLoader(t, m, nil)
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
	l := newTestLoader(t, NewMemory(1<<20, 1, nil), nil)
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

// gatedCache holds the first caller that looks up its gate key inside
// that lookup, after reading the cache, so its answer can be stale by
// the time it returns.
type gatedCache struct {
	*Memory
	gate             Key
	armed            atomic.Bool
	entered, release chan struct{}
}

func newGatedCache(gate Key) *gatedCache {
	c := &gatedCache{Memory: NewMemory(1<<20, 1, nil), gate: gate,
		entered: make(chan struct{}), release: make(chan struct{})}
	c.armed.Store(true)
	return c
}

func (c *gatedCache) Get(k Key) ([]byte, bool) {
	v, ok := c.Memory.Get(k)
	if k == c.gate && c.armed.CompareAndSwap(true, false) {
		close(c.entered)
		<-c.release
	}
	return v, ok
}

// look starts a Do of c's gate key and returns once that Do is held in
// its first lookup; the channel yields what it returns after c.release
// closes.
func look(l *Loader, c *gatedCache) <-chan string {
	out := make(chan string, 1)
	go func() {
		v, hit, err := l.Do(c.gate, func() ([]byte, error) { return nil, errors.New("looking caller computed") })
		out <- fmt.Sprintf("%s %v %v", v, hit, err)
	}()
	<-c.entered
	return out
}

// TestLoaderStaleMissFindsStoredValue replays the race that computed
// one key twice: a caller misses, a flight for the same key computes,
// stores and settles, and only then does the caller take the lock. Its
// second lookup, under the lock, must find the stored value: a hit,
// with no second compute.
func TestLoaderStaleMissFindsStoredValue(t *testing.T) {
	c := newGatedCache(key("raced", 1))
	reg := obs.New(0)
	l := newTestLoader(t, c, reg)
	looker := look(l, c)
	if v, hit, err := l.Do(c.gate, func() ([]byte, error) { return []byte("v"), nil }); err != nil || hit || string(v) != "v" {
		t.Fatalf("flight: %q %v %v", v, hit, err)
	}
	close(c.release)
	if got := <-looker; got != "v true <nil>" {
		t.Fatalf("stale miss got %q, want the stored value as a hit", got)
	}
	if st := reg.Snapshot().Cache; st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("two Dos counted %d hits and %d misses, want 1 and 1", st.Hits, st.Misses)
	}
}

// TestLoaderWaiterKeepsOwnDeadline: a flight that fails because its
// first caller's context ended (a short timeout_ms, a disconnect) does
// not fail the callers that joined it, since the cache key leaves the
// deadline out; each goes back to the lookup and, here, computes under
// its own compute.
func TestLoaderWaiterKeepsOwnDeadline(t *testing.T) {
	for _, leaderErr := range []error{context.DeadlineExceeded, context.Canceled} {
		t.Run(leaderErr.Error(), func(t *testing.T) {
			k := key("deadline", 1)
			c := newGatedCache(k)
			c.armed.Store(false)
			reg := obs.New(0)
			l := newTestLoader(t, c, reg)
			leading := make(chan struct{})
			leader := make(chan error, 1)
			go func() {
				_, _, err := l.Do(k, func() ([]byte, error) {
					close(leading)
					<-c.entered // the waiter has missed; give it time to join
					time.Sleep(20 * time.Millisecond)
					return nil, fmt.Errorf("eval: %w", leaderErr)
				})
				leader <- err
			}()
			<-leading
			c.armed.Store(true) // the waiter's first lookup opens c.entered
			close(c.release)
			v, hit, err := l.Do(k, func() ([]byte, error) { return []byte("mine"), nil })
			if err != nil || hit || string(v) != "mine" {
				t.Fatalf("waiter got %q %v %v, want its own compute", v, hit, err)
			}
			if err := <-leader; !errors.Is(err, leaderErr) {
				t.Fatalf("leader got %v, want %v", err, leaderErr)
			}
			if st := reg.Snapshot().Cache; st.Hits != 0 || st.Misses != 2 {
				t.Fatalf("two Dos counted %d hits and %d misses, want 0 and 2", st.Hits, st.Misses)
			}
		})
	}
}

// TestLoaderCountsLookups: each Do over a cache counts one hit or one
// miss; a stale epoch is a miss, and a nil cache counts nothing.
func TestLoaderCountsLookups(t *testing.T) {
	reg := obs.New(0)
	l := newTestLoader(t, NewMemory(1<<20, 4, reg), reg)
	k := key("x1=0&x2=1", 7)
	val := func() ([]byte, error) { return []byte("result"), nil }
	if _, hit, _ := l.Do(k, val); hit {
		t.Fatal("hit on empty cache")
	}
	if v, hit, _ := l.Do(k, val); !hit || string(v) != "result" {
		t.Fatalf("second Do = %q, %v", v, hit)
	}
	if _, hit, _ := l.Do(key("x1=0&x2=1", 8), val); hit {
		t.Fatal("stale hit across epochs")
	}
	if st := reg.Snapshot().Cache; st.Hits != 1 || st.Misses != 2 || st.Puts != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses, 2 puts", st)
	}
	none := obs.New(0)
	nl := newTestLoader(t, nil, none)
	nl.Do(k, val)
	if st := none.Snapshot().Cache; st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("nil cache counted %d hits, %d misses", st.Hits, st.Misses)
	}
}

// mapCache is a ResultCache adapter that counts nothing itself.
type mapCache struct {
	mu sync.Mutex
	m  map[Key][]byte
}

func (c *mapCache) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}

func (c *mapCache) Put(k Key, v []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = v
}

// TestLoaderCountsAnyAdapter: hits and misses reach the registry
// whatever adapter is behind the port, not only through Memory.
func TestLoaderCountsAnyAdapter(t *testing.T) {
	reg := obs.New(0)
	l := newTestLoader(t, &mapCache{m: map[Key][]byte{}}, reg)
	k := key("q", 1)
	for i := 0; i < 2; i++ {
		if _, _, err := l.Do(k, func() ([]byte, error) { return []byte("v"), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := reg.Snapshot().Cache; st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("counted %d hits and %d misses, want 1 and 1", st.Hits, st.Misses)
	}
}

func TestLoaderNilCacheStillCoalesces(t *testing.T) {
	l := newTestLoader(t, nil, nil)
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
	l := newTestLoader(t, NewMemory(1<<20, 1, nil), nil)
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
	// Every shard should hold something: Key.Hash (FNV-1a) spreads keys.
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
