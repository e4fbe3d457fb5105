//go:build !race

package obs

import (
	"testing"
	"time"
)

// BenchmarkRecordRequest is one request counted on a known route: a map
// read and four atomic operations.
func BenchmarkRecordRequest(b *testing.B) {
	m := New(0)
	m.RecordRequest("/v1/window", 200, time.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RecordRequest("/v1/window", 200, 7*time.Microsecond)
	}
}

// BenchmarkRecordOp is one evaluator operator timed on a known name.
func BenchmarkRecordOp(b *testing.B) {
	m := New(0)
	m.RecordOp("inside", time.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RecordOp("inside", 3*time.Microsecond)
	}
}

// TestAllocBudgets pins the two per-request recorders at zero: nothing
// boxed, formatted or grown once the label has been seen. Same shape as
// the other packages' TestAllocBudgets; the race detector changes
// allocation counts, hence the build constraint.
func TestAllocBudgets(t *testing.T) {
	for _, c := range []struct {
		name                string
		bench               func(*testing.B)
		maxAllocs, maxBytes int64
	}{
		{"BenchmarkRecordRequest", BenchmarkRecordRequest, 0, 0},
		{"BenchmarkRecordOp", BenchmarkRecordOp, 0, 0},
	} {
		r := testing.Benchmark(c.bench)
		if r.N == 0 {
			t.Errorf("%s did not run", c.name)
			continue
		}
		if r.AllocsPerOp() > c.maxAllocs || r.AllocedBytesPerOp() > c.maxBytes {
			t.Errorf("%s: %d allocs/op, %d B/op; budget %d allocs/op, %d B/op",
				c.name, r.AllocsPerOp(), r.AllocedBytesPerOp(), c.maxAllocs, c.maxBytes)
		}
	}
}
