package index

import (
	"math/rand"
	"slices"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
)

func randomCubes(rng *rand.Rand, n int) []Entry {
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		x, y, t := rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
		w, h, d := rng.Float64()*10, rng.Float64()*10, rng.Float64()*10
		out = append(out, Entry{
			Cube: geom.Cube{
				Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h},
				MinT: t, MaxT: t + d,
			},
			ID: int64(i),
		})
	}
	return out
}

func TestRTreeBuildAndValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 15, 16, 17, 300, 5000} {
		tr := Build(randomCubes(rng, n))
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRTreeSearchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	entries := randomCubes(rng, 2000)
	tr := Build(entries)
	for trial := 0; trial < 50; trial++ {
		q := randomCubes(rng, 1)[0].Cube
		got, _ := tr.Search(q, nil)
		var want []int64
		for _, e := range entries {
			if e.Cube.Intersects(q) {
				want = append(want, e.ID)
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: search %v != scan %v", trial, got, want)
		}
	}
}

func TestRTreePrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := Build(randomCubes(rng, 4096))
	// A tiny query must visit far fewer nodes than the whole tree.
	q := geom.Cube{Rect: geom.Rect{MinX: 50, MinY: 50, MaxX: 51, MaxY: 51}, MinT: 50, MaxT: 51}
	_, visited := tr.Search(q, nil)
	if visited >= len(tr.nodes) {
		t.Fatalf("no pruning: visited %d of %d nodes", visited, len(tr.nodes))
	}
}

func TestUnitInWindowEdgeCases(t *testing.T) {
	rect := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	// Static point inside.
	if !unitInWindow(5, 0, 5, 0, rect, temporal.Closed(0, 10), temporal.Closed(2, 3)) {
		t.Error("static inside missed")
	}
	// Static point outside.
	if unitInWindow(50, 0, 5, 0, rect, temporal.Closed(0, 10), temporal.Closed(2, 3)) {
		t.Error("static outside hit")
	}
	// Moving point entering after the query interval.
	if unitInWindow(-100, 1, 5, 0, rect, temporal.Closed(0, 200), temporal.Closed(0, 50)) {
		t.Error("late entry hit")
	}
	if !unitInWindow(-100, 1, 5, 0, rect, temporal.Closed(0, 200), temporal.Closed(100, 120)) {
		t.Error("in-window interval missed")
	}
	// Disjoint unit and query intervals.
	if unitInWindow(5, 0, 5, 0, rect, temporal.Closed(0, 10), temporal.Closed(20, 30)) {
		t.Error("disjoint intervals hit")
	}
}
