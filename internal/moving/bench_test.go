package moving_test

import (
	"context"
	"testing"

	"movingdb/internal/workload"
)

// The benchmarks run the two §5 kernels the analytics queries are made
// of over seeded flights and storms; TestAllocBudgets holds them to
// their allocation ceilings.

func BenchmarkInside(b *testing.B) {
	g := workload.New(2000)
	flights := g.Flights(16, 200)
	storm := g.Storm(0, 64, 12, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if flights[i%len(flights)].Flight.Inside(storm).M.IsEmpty() {
			b.Fatal("flight and storm share no time")
		}
	}
}

func BenchmarkDistanceAtMinInitial(b *testing.B) {
	flights := workload.New(2000).Flights(16, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, q := flights[i%len(flights)].Flight, flights[(i+1)%len(flights)].Flight
		if _, ok := p.Distance(q).AtMin().Initial(); !ok {
			b.Fatal("flights share no time")
		}
	}
}

// BenchmarkAreaMax is max(area(extent)) over one storm of the analytics
// catalog's shape, folded unit by unit without the moving real.
func BenchmarkAreaMax(b *testing.B) {
	storm := workload.New(2000).Storm(0, 64, 12, 6)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := storm.AreaMaxCtx(ctx); !ok || err != nil {
			b.Fatal("a storm has an area")
		}
	}
}
