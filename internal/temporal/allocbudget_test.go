//go:build !race

package temporal

import "testing"

// TestAllocBudgets is the runtime half of the hot-path allocation
// contract (molint's alloc-hot check is the static half): the
// refinement sweep allocates nothing. The race detector changes
// allocation counts, hence the build constraint.
func TestAllocBudgets(t *testing.T) {
	r := testing.Benchmark(BenchmarkSweep)
	if r.N == 0 {
		t.Fatal("BenchmarkSweep did not run")
	}
	if r.AllocsPerOp() != 0 || r.AllocedBytesPerOp() != 0 {
		t.Errorf("BenchmarkSweep: %d allocs/op, %d B/op; budget 0", r.AllocsPerOp(), r.AllocedBytesPerOp())
	}
}
