package index

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"movingdb/internal/geom"
)

// knnFixture is a set of random points indexed as degenerate cubes,
// split between a bulk-loaded first rung and a folded second one, so
// best-first traversal seeds its frontier from more than one root.
type knnFixture struct {
	xs, ys []float64
	live   []bool // refine reports ok only for live ids
	snap   Snapshot
}

func buildKNNFixture(rng *rand.Rand, n int, tMin, tMax float64) *knnFixture {
	f := &knnFixture{xs: make([]float64, n), ys: make([]float64, n), live: make([]bool, n)}
	entries := make([]Entry, 0, n+n/10)
	for i := 0; i < n; i++ {
		f.xs[i] = rng.Float64() * 1000
		f.ys[i] = rng.Float64() * 1000
		f.live[i] = rng.Float64() > 0.1 // ~10% of ids refine to "undefined at t"
		r := geom.Rect{MinX: f.xs[i], MinY: f.ys[i], MaxX: f.xs[i], MaxY: f.ys[i]}
		entries = append(entries, Entry{Cube: geom.Cube{Rect: r, MinT: tMin, MaxT: tMax}, ID: int64(i)})
		if i%7 == 0 {
			// Duplicate entries for the same id (a unit indexed in
			// pieces); refinement must still yield the id once.
			entries = append(entries, Entry{Cube: geom.Cube{Rect: r, MinT: tMin, MaxT: tMax}, ID: int64(i)})
		}
	}
	split := len(entries) * 3 / 4
	f.snap, _ = Snapshot{}.WithRung(Build(slices.Clone(entries[:split]))).Fold(entries[split:])
	return f
}

func (f *knnFixture) refine(qx, qy float64) func(id int64) (int64, float64, bool) {
	return func(id int64) (int64, float64, bool) {
		if !f.live[id] {
			return id, 0, false
		}
		return id, math.Hypot(f.xs[id]-qx, f.ys[id]-qy), true
	}
}

// oracle returns the expected neighbor list by brute force: live points
// within maxDist (when >= 0), ordered by (distance, id), the first k
// (k <= 0 means unbounded).
func (f *knnFixture) oracle(qx, qy float64, k int, maxDist float64) []Neighbor {
	var all []Neighbor
	for i := range f.xs {
		if !f.live[i] {
			continue
		}
		d := math.Hypot(f.xs[i]-qx, f.ys[i]-qy)
		if maxDist >= 0 && d > maxDist {
			continue
		}
		all = append(all, Neighbor{Key: int64(i), Dist: d})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Key < all[j].Key
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// TestNearestMatchesBruteForce is the k-NN property test: on 1000
// random points, best-first traversal over two rungs must return
// exactly the brute-force answer for random (query point, k, radius)
// combinations, in (distance, id) order.
func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := buildKNNFixture(rng, 1000, 0, 100)
	for trial := 0; trial < 60; trial++ {
		qx, qy := rng.Float64()*1200-100, rng.Float64()*1200-100
		k := 1 + rng.Intn(20)
		radius := -1.0
		switch trial % 3 {
		case 1:
			radius = 20 + rng.Float64()*300
		case 2:
			radius = 20 + rng.Float64()*300
			k = 0 // pure range query
		}
		got, _ := f.snap.Nearest(qx, qy, 50, k, radius, f.refine(qx, qy))
		want := f.oracle(qx, qy, k, radius)
		if len(got) != len(want) {
			t.Fatalf("trial %d (k=%d r=%.1f): got %d neighbors, want %d", trial, k, radius, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("trial %d (k=%d r=%.1f) neighbor %d: got (%d, %g), want (%d, %g)",
					trial, k, radius, i, got[i].Key, got[i].Dist, want[i].Key, want[i].Dist)
			}
		}
	}
}

// TestNearestTimePruning: entries whose time extent excludes the query
// instant are pruned without refinement; entries covering it are found.
func TestNearestTimePruning(t *testing.T) {
	past := Entry{Cube: geom.Cube{Rect: geom.Rect{MinX: 1, MinY: 1, MaxX: 1, MaxY: 1}, MinT: 0, MaxT: 10}, ID: 0}
	now := Entry{Cube: geom.Cube{Rect: geom.Rect{MinX: 5, MinY: 5, MaxX: 5, MaxY: 5}, MinT: 10, MaxT: 30}, ID: 1}
	snap, _ := Snapshot{}.WithRung(Build([]Entry{past})).Fold([]Entry{now})
	refined := map[int64]int{}
	got, _ := snap.Nearest(0, 0, 20, 5, -1, func(id int64) (int64, float64, bool) {
		refined[id]++
		return id, float64(id), true
	})
	if len(got) != 1 || got[0].Key != 1 {
		t.Fatalf("neighbors: %+v", got)
	}
	if refined[0] != 0 {
		t.Fatalf("entry outside the query instant was refined: %v", refined)
	}
}

// TestNearestTiesByKey: two objects at the same exact distance come out
// by key even when the higher key's entry cube holds the query point, so
// it is refined first, and the lower key's entry waits at exactly the
// tied distance.
func TestNearestTiesByKey(t *testing.T) {
	wide := Entry{Cube: geom.Cube{Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 0}, MaxT: 1}, ID: 1}
	point := Entry{Cube: geom.Cube{Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 0, MaxY: 0}, MaxT: 1}, ID: 0}
	snap := Snapshot{}.WithRung(Build([]Entry{wide, point}))
	got, _ := snap.Nearest(1.75, 0, 0, 2, -1, func(id int64) (int64, float64, bool) { return id, 1.75, true })
	if want := []Neighbor{{Key: 0, Dist: 1.75}, {Key: 1, Dist: 1.75}}; !slices.Equal(got, want) {
		t.Fatalf("Nearest = %v, want %v", got, want)
	}
}

// TestNearestEmpty: an empty snapshot and a k=0, radius<0 call both
// return no neighbors without panicking.
func TestNearestEmpty(t *testing.T) {
	var snap Snapshot
	if got, _ := snap.Nearest(0, 0, 0, 5, -1, func(id int64) (int64, float64, bool) { return id, 0, true }); len(got) != 0 {
		t.Fatalf("empty snapshot returned %+v", got)
	}
}

// TestSearchSortedAppend: all three search entry points append after a
// non-empty destination prefix and leave it untouched, and the appended
// ids, sorted, are the scan's. None of them sorts: every caller dedupes
// and orders by itself.
func TestSearchSortedAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	entries := make([]Entry, 500)
	for i := range entries {
		x, y, ts := rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
		entries[i] = Entry{
			Cube: geom.Cube{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 5, MaxY: y + 5}, MinT: ts, MaxT: ts + 10},
			// Insertion order deliberately differs from id order.
			ID: int64((i * 131) % 500),
		}
	}
	tree := Build(slices.Clone(entries[:300]))
	dyn := NewDynamic(Build(slices.Clone(entries[:300])), 0)
	dyn.InsertBatch(entries[300:])
	q := geom.Cube{Rect: geom.Rect{MinX: 20, MinY: 20, MaxX: 70, MaxY: 70}, MinT: 0, MaxT: 60}

	check := func(name string, out []int64, want []int64) {
		t.Helper()
		if len(out) < 1 || out[0] != -7 {
			t.Fatalf("%s: destination prefix clobbered: %v", name, out)
		}
		if len(out) == 1 {
			t.Fatalf("%s: query matched nothing; fixture too small", name)
		}
		if !slices.Equal(sorted(out[1:]), want) {
			t.Fatalf("%s = %v, scan = %v", name, out[1:], want)
		}
	}
	out, _ := tree.Search(q, []int64{-7})
	check("RTree.Search", out, scanWindow(entries[:300], q))
	out, _ = dyn.Search(q, []int64{-7})
	check("Dynamic.Search", out, scanWindow(entries, q))
	out, _ = dyn.Snapshot().Search(q, []int64{-7})
	check("Snapshot.Search", out, scanWindow(entries, q))
}
