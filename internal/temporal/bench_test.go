package temporal

import "testing"

// chain returns n half-open unit intervals of the given length starting
// at t0, the shape of a mapping's unit array.
func chain(t0 Instant, n int, length Instant) []Interval {
	out := make([]Interval, n)
	for i := range out {
		out[i] = RightHalfOpen(t0+Instant(i)*length, t0+Instant(i+1)*length)
	}
	return out
}

// BenchmarkSweep streams the refinement partition of two unit chains
// with different unit lengths and offsets; the pieces are only counted.
func BenchmarkSweep(b *testing.B) {
	x, y := chain(0, 256, 3), chain(100.5, 128, 5)
	b.ReportAllocs()
	b.ResetTimer()
	pieces := 0
	for i := 0; i < b.N; i++ {
		s := newSweep(x, y)
		for _, ok := s.next(); ok; _, ok = s.next() {
			pieces++
		}
	}
	if pieces == 0 {
		b.Fatal("empty partition")
	}
}
