package db

import (
	"fmt"
	"testing"

	"movingdb/internal/workload"
)

// BenchmarkJoinInside is the planes × storms join the analytics
// workload's costliest statement is shaped like, on a 20 × 4 catalog:
// per row the executor evaluates a bound predicate whose cost is the
// inside kernel, and TestAllocBudgets holds what it allocates besides.
func BenchmarkJoinInside(b *testing.B) {
	g := workload.New(2000)
	planes := NewRelation("planes", Schema{
		{Name: "id", Type: TString},
		{Name: "flight", Type: TMPoint},
	})
	for _, f := range g.Flights(20, 200) {
		planes.MustInsert(Tuple{f.ID, f.Flight})
	}
	storms := NewRelation("storms", Schema{
		{Name: "name", Type: TString},
		{Name: "extent", Type: TMRegion},
	})
	for i := 0; i < 4; i++ {
		storms.MustInsert(Tuple{fmt.Sprintf("storm%02d", i), g.Storm(0, 64, 12, 6)})
	}
	cat := Catalog{"planes": planes, "storms": storms}
	const sql = "SELECT p.id, s.name FROM planes p, storms s WHERE sometimes(inside(p.flight, s.extent)) AND p.id <> 'none'"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Query(cat, sql)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("no plane meets a storm")
		}
	}
}
