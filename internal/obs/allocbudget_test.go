//go:build !race

package obs

import (
	"testing"
	"time"

	"movingdb/internal/allocbudget"
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
// boxed, formatted or grown once the label has been seen.
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		allocbudget.Budget{Name: "BenchmarkRecordRequest", Bench: BenchmarkRecordRequest},
		allocbudget.Budget{Name: "BenchmarkRecordOp", Bench: BenchmarkRecordOp},
	)
}
