//go:build !race

package moving_test

import "testing"

// TestAllocBudgets is the runtime half of the hot-path allocation
// contract (molint's alloc-hot check is the static half): the lifted
// kernels allocate their result's unit array and nothing else — the
// refinement partition, the region's moving segments, cubes, roots and
// crossings are all walked or held by value. Inside grows its result by
// append (a flight meets a storm in one to four boolean units);
// Distance sizes its result once, AtMin allocates the second array. The
// race detector changes allocation counts, hence the build constraint.
func TestAllocBudgets(t *testing.T) {
	for _, c := range []struct {
		name                string
		bench               func(*testing.B)
		maxAllocs, maxBytes int64
	}{
		{"BenchmarkInside", BenchmarkInside, 2, 128},
		{"BenchmarkDistanceAtMinInitial", BenchmarkDistanceAtMinInitial, 2, 640},
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
