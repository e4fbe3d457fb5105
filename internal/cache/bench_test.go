package cache

import (
	"fmt"
	"testing"
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
