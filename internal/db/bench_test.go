package db

import (
	"context"
	"fmt"
	"testing"

	"movingdb/internal/obs"
	"movingdb/internal/workload"
)

// benchPlanes is the 20-flight relation of the join benchmarks.
func benchPlanes(g *workload.Gen) *Relation {
	planes := NewRelation("planes", Schema{
		{Name: "id", Type: TString},
		{Name: "flight", Type: TMPoint},
	})
	for _, f := range g.Flights(20, 200) {
		planes.MustInsert(Tuple{f.ID, f.Flight})
	}
	return planes
}

// BenchmarkJoinInside is the planes × storms join of the analytics
// workload's template a, on a 20 × 4 catalog: per row the executor asks
// the filter and runs the inside kernel only on the pairs it cannot
// exclude; TestAllocBudgets holds what the statement allocates.
func BenchmarkJoinInside(b *testing.B) {
	g := workload.New(2000)
	planes := benchPlanes(g)
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

// BenchmarkJoinDistance is the self-join of the analytics workload's
// template b on 20 planes: 190 ordered pairs through the distance
// filter, the distance → atmin → initial → val chain on the survivors.
func BenchmarkJoinDistance(b *testing.B) {
	cat := Catalog{"planes": benchPlanes(workload.New(2000))}
	const sql = "SELECT p.id, q.id FROM planes p, planes q WHERE p.id < q.id AND val(initial(atmin(distance(p.flight, q.flight)))) < 15"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Query(cat, sql)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("no two planes come within 15")
		}
	}
}

// analyticsCatalog is the catalog of bench/'s analytics_sql workload:
// 200 flights and 16 storms of 64 units and 12 vertices from data seed
// 2000, generated in that order.
func analyticsCatalog() Catalog {
	g := workload.New(2000)
	planes := NewRelation("planes", Schema{
		{Name: "airline", Type: TString},
		{Name: "id", Type: TString},
		{Name: "flight", Type: TMPoint},
	})
	for _, f := range g.Flights(200, 200) {
		planes.MustInsert(Tuple{f.Airline, f.ID, f.Flight})
	}
	storms := NewRelation("storms", Schema{
		{Name: "name", Type: TString},
		{Name: "extent", Type: TMRegion},
	})
	for i := 0; i < 16; i++ {
		storms.MustInsert(Tuple{fmt.Sprintf("storm%02d", i), g.Storm(0, 64, 12, 6)})
	}
	return Catalog{"planes": planes, "storms": storms}
}

// The statements of that workload's four templates, their seeded
// literals fixed.
const (
	templateA = "SELECT p.id, s.name FROM planes p, storms s WHERE sometimes(inside(p.flight, s.extent)) AND p.id <> 'none'"
	templateB = "SELECT p.id, q.id FROM planes p, planes q WHERE p.id < q.id AND val(initial(atmin(distance(p.flight, q.flight)))) < 15.000"
	templateC = "SELECT name, max(area(extent)) AS peak, 'none' AS tag FROM storms WHERE name <> 'none'"
	templateD = "SELECT p.id, duration(inside(p.flight, s.extent)) AS exposure FROM planes p, storms s WHERE s.name = 'storm00' AND sometimes(inside(p.flight, s.extent)) AND p.id <> 'none' ORDER BY exposure DESC LIMIT 10"
)

// benchTemplate runs one statement against the full analytics catalog,
// so that a template's share of an analytics_sql cycle (a + b + 3·c +
// 3·d) is one `go test -bench Template` away. It measures the served
// path: the context carries an obs registry, as the server's and the
// bench replay's do, so operators are timed and filter outcomes
// recorded. The first query builds the relations' summaries; it is not
// timed.
func benchTemplate(b *testing.B, sql string) {
	cat := analyticsCatalog()
	ctx := obs.NewContext(context.Background(), obs.New(0))
	if _, err := QueryContext(ctx, cat, sql); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := QueryContext(ctx, cat, sql)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTemplateA(b *testing.B) { benchTemplate(b, templateA) }
func BenchmarkTemplateB(b *testing.B) { benchTemplate(b, templateB) }
func BenchmarkTemplateC(b *testing.B) { benchTemplate(b, templateC) }
func BenchmarkTemplateD(b *testing.B) { benchTemplate(b, templateD) }
