// Benchmarks backing the experiment index of DESIGN.md: one bench family
// per quantitative claim of the paper (E1–E7 in EXPERIMENTS.md, whose
// tables are this file's `go test -bench . .` output row for row), plus
// ablations for the data structure design choices.
package movingdb_test

import (
	"fmt"
	"testing"

	"movingdb/internal/baseline"
	"movingdb/internal/db"
	"movingdb/internal/geom"
	"movingdb/internal/index"
	"movingdb/internal/ingest"
	"movingdb/internal/mapping"
	"movingdb/internal/moving"
	"movingdb/internal/spatial"
	"movingdb/internal/storage"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
	"movingdb/internal/workload"
)

// E1 — atinstant on a moving region: O(log n + r log r) sliced vs
// O(n + r log r) naive scan (Section 5.1).
func BenchmarkAtInstantSliced(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("units=%d", n), func(b *testing.B) {
			mr := workload.New(99).Storm(0, n, 12, 10)
			ts := probeInstants(float64(n)*10, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mr.AtInstant(ts[i%len(ts)])
			}
		})
	}
}

func BenchmarkAtInstantNaive(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("units=%d", n), func(b *testing.B) {
			nv := baseline.FromMRegion(workload.New(99).Storm(0, n, 12, 10))
			ts := probeInstants(float64(n)*10, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nv.AtInstant(ts[i%len(ts)])
			}
		})
	}
}

// E1 (lookup only) — the pure O(log n) vs O(n) unit search.
func BenchmarkUnitLookupBinary(b *testing.B) {
	for _, n := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("units=%d", n), func(b *testing.B) {
			mp := workload.New(1).RandomTrajectory(0, n, 10, 2)
			ts := probeInstants(float64(n)*10, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mp.M.FindUnit(ts[i%len(ts)])
			}
		})
	}
}

func BenchmarkUnitLookupScan(b *testing.B) {
	for _, n := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("units=%d", n), func(b *testing.B) {
			np := baseline.FromMPoint(workload.New(1).RandomTrajectory(0, n, 10, 2))
			ts := probeInstants(float64(n)*10, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				np.AtInstant(ts[i%len(ts)])
			}
		})
	}
}

// E1 (second sweep) — snapshot construction is Θ(r log r) in the region
// size for both representations.
func BenchmarkAtInstantRegionSize(b *testing.B) {
	ts := probeInstants(640, 64)
	for _, r := range []int{8, 64, 512} {
		mr := workload.New(99).Storm(0, 64, r, 10)
		nv := baseline.FromMRegion(mr)
		b.Run(fmt.Sprintf("segs=%d/sliced", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mr.AtInstant(ts[i%len(ts)])
			}
		})
		b.Run(fmt.Sprintf("segs=%d/naive", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nv.AtInstant(ts[i%len(ts)])
			}
		})
	}
}

// E2 — inside(mpoint, mregion): O(n + m + S) refinement vs O(n·m)
// all-pairs (Section 5.2).
func BenchmarkInsideSliced(b *testing.B) {
	for _, n := range []int{32, 256, 2048} {
		b.Run(fmt.Sprintf("units=%d", n), func(b *testing.B) {
			g := workload.New(7)
			mp := g.RandomTrajectory(0, n, 10, 2)
			mr := g.Storm(0, n, 10, 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mp.Inside(mr)
			}
		})
	}
}

func BenchmarkInsideNaive(b *testing.B) {
	for _, n := range []int{32, 256, 2048} {
		b.Run(fmt.Sprintf("units=%d", n), func(b *testing.B) {
			g := workload.New(7)
			np := baseline.FromMPoint(g.RandomTrajectory(0, n, 10, 2))
			nr := baseline.FromMRegion(g.Storm(0, n, 10, 10))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				np.Inside(nr)
			}
		})
	}
}

// E2 (second sweep) — the S term (segments per region unit) is linear
// and representation-independent.
func BenchmarkInsideRegionSize(b *testing.B) {
	for _, s := range []int{8, 64, 512} {
		g := workload.New(7)
		mp := g.RandomTrajectory(0, 64, 10, 2)
		mr := g.Storm(0, 64, s, 10)
		np, nr := baseline.FromMPoint(mp), baseline.FromMRegion(mr)
		b.Run(fmt.Sprintf("segs=%d/sliced", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mp.Inside(mr)
			}
		})
		b.Run(fmt.Sprintf("segs=%d/naive", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				np.Inside(nr)
			}
		})
	}
}

// E3 — equality by representation comparison (Section 4).
func BenchmarkEqualityRepresentation(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("units=%d", n), func(b *testing.B) {
			a := workload.New(3).RandomTrajectory(0, n, 10, 2)
			c := moving.MPoint{M: mapping.FromOrdered(append([]units.UPoint{}, a.M.Units()...))}
			au, cu := a.M.Units(), c.M.Units()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eq := len(au) == len(cu)
				for k := 0; eq && k < len(au); k++ {
					eq = au[k] == cu[k]
				}
				if !eq {
					b.Fatal("copies must be equal")
				}
			}
		})
	}
}

// E3 (contrast) — what a system without canonical representations must
// do instead: probe both values at 32 instants, a heuristic that cannot
// prove equality.
func BenchmarkEqualitySemanticProbe(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("units=%d", n), func(b *testing.B) {
			a := workload.New(3).RandomTrajectory(0, n, 10, 2)
			c := moving.MPoint{M: mapping.FromOrdered(append([]units.UPoint{}, a.M.Units()...))}
			span := float64(n) * 10
			var diff float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 32; k++ {
					t := temporal.Instant(span * float64(k) / 32)
					diff += a.AtInstant(t).P.X - c.AtInstant(t).P.X
				}
			}
			if diff != 0 {
				b.Fatal("copies must agree at every probe")
			}
		})
	}
}

// E4 — the Section 4 representations: encode/decode throughput, with
// the layout of each encoded value (root record, arrays, what stays
// inline in the tuple, whole pages moved out) as extra metrics.
func BenchmarkEncodeMPoint(b *testing.B) {
	for _, n := range []int{4, 4096} {
		b.Run(fmt.Sprintf("units=%d", n), func(b *testing.B) {
			mp := workload.New(5).RandomTrajectory(0, n, 10, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				storage.EncodeMPoint(mp)
			}
			reportLayout(b, storage.EncodeMPoint(mp))
		})
	}
}

func reportLayout(b *testing.B, e storage.Encoded) {
	sv := storage.Store(storage.NewPageStore(), e)
	arrays := 0
	for _, a := range e.Arrays {
		arrays += len(a)
	}
	b.ReportMetric(float64(len(e.Root)), "root-B")
	b.ReportMetric(float64(arrays), "arrays-B")
	b.ReportMetric(float64(sv.InlineSize()), "inline-B")
	b.ReportMetric(float64(sv.ExternalPages()), "pages")
}

func BenchmarkDecodeMPoint(b *testing.B) {
	e := storage.EncodeMPoint(workload.New(5).RandomTrajectory(0, 4096, 10, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := storage.DecodeMPoint(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeMRegion(b *testing.B) {
	for _, size := range [][2]int{{16, 12}, {256, 24}} {
		b.Run(fmt.Sprintf("units=%d/segs=%d", size[0], size[1]), func(b *testing.B) {
			mr := workload.New(5).Storm(0, size[0], size[1], 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				storage.EncodeMRegion(mr)
			}
			reportLayout(b, storage.EncodeMRegion(mr))
		})
	}
}

func BenchmarkDecodeMRegion(b *testing.B) {
	e := storage.EncodeMRegion(workload.New(5).Storm(0, 256, 24, 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := storage.DecodeMRegion(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageStoreRoundTrip(b *testing.B) {
	flat := storage.EncodeMRegion(workload.New(5).Storm(0, 256, 24, 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := storage.NewPageStore()
		sv := storage.Store(ps, flat)
		if _, err := storage.Load(ps, sv); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 — end-to-end workload: membership of a trajectory in a moving
// region plus path restriction, sliced vs naive.
func BenchmarkEndToEndSliced(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("units=%d", n), func(b *testing.B) {
			g := workload.New(17)
			mp := g.RandomTrajectory(0, n, 10, 2)
			mr := g.Storm(0, n, 12, 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inside := mp.Inside(mr)
				_ = mp.When(inside).Length()
			}
		})
	}
}

func BenchmarkEndToEndNaive(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("units=%d", n), func(b *testing.B) {
			g := workload.New(17)
			mp := g.RandomTrajectory(0, n, 10, 2)
			np := baseline.FromMPoint(mp)
			nr := baseline.FromMRegion(g.Storm(0, n, 12, 10))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inside := np.Inside(nr)
				_ = mp.When(inside).Length()
			}
		})
	}
}

// E5 (join) — the Section 2 spatio-temporal join (distance → atmin →
// initial) as a cross join over an in-memory planes relation.
func BenchmarkJoinDistanceAtMin(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("flights=%d", n), func(b *testing.B) {
			rel := db.NewRelation("planes", db.Schema{
				{Name: "airline", Type: db.TString},
				{Name: "id", Type: db.TString},
				{Name: "flight", Type: db.TMPoint},
			})
			for _, f := range workload.New(17).Flights(n, 200) {
				rel.MustInsert(db.Tuple{f.Airline, f.ID, f.Flight})
			}
			near := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts := rel.Scan()
				for x := range ts {
					for y := x + 1; y < len(ts); y++ {
						pa := db.Get[moving.MPoint](rel, ts[x], "flight")
						pb := db.Get[moving.MPoint](rel, ts[y], "flight")
						if first, ok := pa.Distance(pb).AtMin().Initial(); ok && first.Val < 20 {
							near++
						}
					}
				}
			}
			b.ReportMetric(float64(near)/float64(b.N), "pairs")
		})
	}
}

// E6 — the refinement partition is linear in the unit counts: ns/unit
// (time over n + m) stays in a narrow band.
func BenchmarkRefine(b *testing.B) {
	for _, n := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("units=%d", n), func(b *testing.B) {
			g := workload.New(23)
			ai := g.RandomTrajectory(0, n, 10, 2).M.Intervals()
			bi := g.RandomTrajectory(0, n, 7, 2).M.Intervals()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				temporal.Refine(ai, bi)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*n), "ns/unit")
		})
	}
}

// Query kernels of Section 2: trajectory+length and the join predicate
// distance → atmin → initial.
func BenchmarkTrajectoryLength(b *testing.B) {
	mp := workload.New(2).RandomTrajectory(0, 1024, 10, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mp.Trajectory().Length()
	}
}

func BenchmarkDistanceAtMinInitial(b *testing.B) {
	g := workload.New(2)
	p := g.RandomTrajectory(0, 256, 10, 2)
	q := g.RandomTrajectory(0, 256, 10, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Distance(q).AtMin().Initial(); !ok {
			b.Fatal("no minimum")
		}
	}
}

// Ablation — the region close operation (structure recovery from a
// halfsegment soup, Section 4.1) vs trusted assembly from known faces.
func BenchmarkRegionClose(b *testing.B) {
	for _, nHoles := range []int{0, 4, 16} {
		b.Run(fmt.Sprintf("holes=%d", nHoles), func(b *testing.B) {
			segs := regionSoup(nHoles)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := spatial.Close(segs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func regionSoup(nHoles int) []geom.Segment {
	outer := spatial.MustCycle(spatial.Ring(0, 0, 100, 0, 100, 100, 0, 100)...)
	segs := outer.Segments()
	for i := 0; i < nHoles; i++ {
		x := 5 + float64(i%4)*24
		y := 5 + float64(i/4)*24
		hole := spatial.MustCycle(spatial.Ring(x, y, x+10, y, x+10, y+10, x, y+10)...)
		segs = append(segs, hole.Segments()...)
	}
	return segs
}

func probeInstants(span float64, n int) []temporal.Instant {
	// The fractional offset keeps probes off exact unit boundaries, so
	// the measurement reflects the common inner-instant path rather than
	// the degeneracy cleanup at unit end points.
	ts := make([]temporal.Instant, n)
	for i := range ts {
		ts[i] = temporal.Instant(span * (float64(i) + 0.37) / float64(n))
	}
	return ts
}

// Ablation — cost of the exact for-all-instants validation of uregion
// units (root analysis of all moving segment pairs) vs trusted
// construction. Generators and storage decode use the trusted path; this
// quantifies what untrusted input validation costs.
func BenchmarkURegionValidate(b *testing.B) {
	for _, segs := range []int{6, 12, 24} {
		b.Run(fmt.Sprintf("segs=%d", segs), func(b *testing.B) {
			mr := workload.New(31).Storm(0, 1, segs, 10)
			u := mr.M.Units()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := u.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Query language: parse + type-check + execute the Section 2 selection
// over an in-memory relation.
func BenchmarkQueryLanguage(b *testing.B) {
	planes := db.NewRelation("planes", db.Schema{
		{Name: "airline", Type: db.TString},
		{Name: "id", Type: db.TString},
		{Name: "flight", Type: db.TMPoint},
	})
	for _, f := range workload.New(2000).Flights(50, 200) {
		planes.MustInsert(db.Tuple{f.Airline, f.ID, f.Flight})
	}
	cat := db.Catalog{"planes": planes}
	const q = `SELECT airline, id FROM planes
	           WHERE airline = 'Lufthansa' AND length(trajectory(flight)) > 500`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(cat, q); err != nil {
			b.Fatal(err)
		}
	}
}

// Lifted region-region intersects: exact critical-instant kernel.
func BenchmarkMRegionIntersects(b *testing.B) {
	g := workload.New(41)
	r := g.Storm(0, 32, 8, 10)
	s := g.Storm(0, 32, 8, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Intersects(s)
	}
}

// E7 (extension) — spatio-temporal window queries: the served path (an
// epoch's R-tree over unit cubes plus exact refinement, as /v1/window
// answers) vs a full unit scan (see internal/index; the paper defers
// indexing to related work, this ablation quantifies why a real system
// wants one).
func BenchmarkWindowIndexed(b *testing.B) {
	for _, objs := range []int{50, 200, 1000, 4000} {
		b.Run(fmt.Sprintf("objects=%d", objs), func(b *testing.B) {
			g := workload.New(51)
			objects := make([]moving.MPoint, objs)
			ids := make([]string, objs)
			for i := range objects {
				objects[i] = g.RandomTrajectory(0, 64, 10, 2)
				ids[i] = fmt.Sprintf("o%d", i)
			}
			ep, err := ingest.Frozen(ids, objects)
			if err != nil {
				b.Fatal(err)
			}
			rect := geom.Rect{MinX: 400, MinY: 400, MaxX: 500, MaxY: 500}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iv := temporal.Closed(temporal.Instant(i%500), temporal.Instant(i%500+60))
				ep.Window(rect, iv)
			}
		})
	}
}

func BenchmarkWindowScan(b *testing.B) {
	for _, objs := range []int{50, 200, 1000, 4000} {
		b.Run(fmt.Sprintf("objects=%d", objs), func(b *testing.B) {
			g := workload.New(51)
			objects := make([]moving.MPoint, objs)
			for i := range objects {
				objects[i] = g.RandomTrajectory(0, 64, 10, 2)
			}
			rect := geom.Rect{MinX: 400, MinY: 400, MaxX: 500, MaxY: 500}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iv := temporal.Closed(temporal.Instant(i%500), temporal.Instant(i%500+60))
				index.ScanWindow(objects, rect, iv)
			}
		})
	}
}

// Extension — region overlay (union / intersection / difference).
func BenchmarkRegionOverlay(b *testing.B) {
	g := workload.New(61)
	r1 := g.StormWithSegments(temporal.Closed(0, 1), 24)
	r2 := g.StormWithSegments(temporal.Closed(0, 1), 24)
	a, _ := r1.AtInstant(0.5)
	c, _ := r2.AtInstant(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Union(c); err != nil {
			b.Fatal(err)
		}
	}
}
