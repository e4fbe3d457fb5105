// Package allocbudget runs the hot-path allocation budgets. The budgets
// are the whole allocation contract: no static check stands behind
// them, so a hot path is protected exactly when a budgeted benchmark
// reaches it. Each package keeps its own table in a TestAllocBudgets
// behind //go:build !race — the race detector changes allocation
// counts, so only the plain `go test ./...` runs them.
package allocbudget

import "testing"

// Budget is one benchmark's ceiling: MaxAllocs is the seeded workload's
// exact allocs/op, MaxBytes its B/op with ~25% headroom for map and
// heap growth jitter.
type Budget struct {
	Name                string
	Bench               func(*testing.B)
	MaxAllocs, MaxBytes int64
}

// Check runs every benchmark and fails t for each one over its budget.
func Check(t *testing.T, budgets ...Budget) {
	t.Helper()
	for _, c := range budgets {
		r := testing.Benchmark(c.Bench)
		if r.N == 0 {
			t.Errorf("%s did not run", c.Name)
			continue
		}
		if r.AllocsPerOp() > c.MaxAllocs || r.AllocedBytesPerOp() > c.MaxBytes {
			t.Errorf("%s: %d allocs/op, %d B/op; budget %d allocs/op, %d B/op",
				c.Name, r.AllocsPerOp(), r.AllocedBytesPerOp(), c.MaxAllocs, c.MaxBytes)
		}
	}
}
