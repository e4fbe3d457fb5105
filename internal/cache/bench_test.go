package cache

import (
	"fmt"
	"testing"

	"movingdb/internal/obs"
)

// BenchmarkMemoryGet measures the sharded-LRU hit path — the first
// thing every cached query touches — under the allocation budget
// (TestAllocBudgets): a warm hit must not allocate at all.
func BenchmarkMemoryGet(b *testing.B) {
	m := NewMemory(1<<22, 4, nil)
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = Key{Route: "/v1/window", Query: fmt.Sprintf("x1=%d&x2=%d", i, i+1), Epoch: 7}
		m.Put(keys[i], []byte("result payload for the benchmark"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get(keys[i%len(keys)]); !ok {
			b.Fatal("benchmark key evicted; grow the budget")
		}
	}
}

// BenchmarkMemoryPut measures the eviction path under the allocation
// budget (TestAllocBudgets): one full shard, every key new and never
// read, so every Put stores one entry and evicts one.
func BenchmarkMemoryPut(b *testing.B) {
	val := make([]byte, 200)
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = Key{Route: "/v1/window", Query: fmt.Sprintf("x1=%04d&x2=%04d", i, i+1), Epoch: 7}
	}
	size := int64(len(val)+len(keys[0].Route)+len(keys[0].Query)) + entryOverhead
	reg := obs.New(0)
	m := NewMemory(256*size, 1, reg)
	for _, k := range keys {
		m.Put(k, val)
	}
	before := reg.Snapshot().Cache.Evictions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(keys[i%len(keys)], val)
	}
	b.StopTimer()
	if n := reg.Snapshot().Cache.Evictions - before; n != int64(b.N) {
		b.Fatalf("%d evictions in %d puts, want one each", n, b.N)
	}
}

// BenchmarkLoaderHit measures Loader.Do's hit path from every P at once
// (run it with -cpu 1,2): besides the shard's relink, a hit writes the
// shared hit counter.
func BenchmarkLoaderHit(b *testing.B) {
	reg := obs.New(0)
	m := NewMemory(1<<22, 0, reg)
	l := NewLoader(m, reg)
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = Key{Route: "/v1/window", Query: fmt.Sprintf("x1=%d&x2=%d", i, i+1), Epoch: 7}
		m.Put(keys[i], []byte("result payload for the benchmark"))
	}
	miss := func() ([]byte, error) { return nil, fmt.Errorf("benchmark key evicted; grow the budget") }
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, _, err := l.Do(keys[i%len(keys)], miss); err != nil {
				b.Fatal(err)
			}
		}
	})
}
