package index

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"movingdb/internal/geom"
)

// TestDynamicSearchMatchesScan cross-checks the union search over every
// rung against a scan over all entries, at several splits between the
// bulk-loaded first rung and the inserted rest, including an empty
// first rung and nothing inserted.
func TestDynamicSearchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	entries := randomCubes(rng, 3000)
	for _, split := range []int{0, 1, 1500, 2999, 3000} {
		d := NewDynamic(Build(slices.Clone(entries[:split])), 0)
		d.InsertBatch(entries[split:])
		if n := d.Snapshot().Len(); n != len(entries) {
			t.Fatalf("split=%d: Len=%d", split, n)
		}
		for trial := 0; trial < 30; trial++ {
			q := randomCubes(rng, 1)[0].Cube
			got, _ := d.Search(q, nil)
			if want := scanWindow(entries, q); !slices.Equal(sorted(got), want) {
				t.Fatalf("split=%d trial=%d: got %d hits, want %d", split, trial, len(got), len(want))
			}
		}
	}
}

// TestDynamicFoldDuringSearch searches the ladder while another
// goroutine folds 50 batches into it, so -race sees both sides of d.mu.
func TestDynamicFoldDuringSearch(t *testing.T) {
	entries := randomCubes(rand.New(rand.NewSource(9)), 500)
	d := NewDynamic(nil, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < len(entries); i += 10 {
			d.InsertBatch(entries[i : i+10])
		}
	}()
	all := geom.Cube{Rect: geom.Rect{MinX: -math.MaxFloat64, MinY: -math.MaxFloat64, MaxX: math.MaxFloat64, MaxY: math.MaxFloat64}, MinT: -math.MaxFloat64, MaxT: math.MaxFloat64}
	var got []int64
	for {
		select {
		case <-done:
			if got, _ = d.Search(all, got[:0]); len(got) != len(entries) {
				t.Fatalf("search after every fold found %d of %d entries", len(got), len(entries))
			}
			return
		default:
			got, _ = d.Search(all, got[:0])
		}
	}
}

// TestDynamicMergeValidate: every rung of the ladder must pass the
// R-tree invariant checks across repeated folds of growing batches, at
// least one fold must merge rungs, and no entry may be lost.
func TestDynamicMergeValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ladder := Snapshot{}.WithRung(Build(randomCubes(rng, 100)))
	total, merges := 100, 0
	for round := 0; round < 40; round++ {
		batch := randomCubes(rng, 50+round)
		for i := range batch {
			batch[i].ID = int64(total + i) // keep ids distinct across rounds
		}
		var merged bool
		if ladder, merged = ladder.Fold(batch); merged {
			merges++
		}
		total += len(batch)
		if err := ladder.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if merges == 0 {
		t.Fatalf("%d entries in 41 folds merged no rungs", total)
	}
	if ladder.Len() != total {
		t.Fatalf("entries lost across folds: Len %d, folded %d", ladder.Len(), total)
	}
}

// TestLadderInvariants checks the shape after every fold, for folds of
// one entry (the pure binary counter), of 64 (the ingest store folds its
// sealed chunks 64 at a time) and of mixed sizes: each rung at least
// twice the size of the next and the last at least the smallest fold m
// — so every rung outweighs everything after it and the rung count is
// at most ⌈log₂(n / m)⌉ + 1 — nothing lost, and every rung a valid tree.
// It also pins the amortisation: the entries moved by all folds
// together stay within log₂ n per entry.
func TestLadderInvariants(t *testing.T) {
	for _, c := range []struct {
		name  string
		batch func(i int) int
	}{
		{"single", func(int) int { return 1 }},
		{"chunks", func(int) int { return 64 }},
		{"mixed", func(i int) int { return 1 + (i*i*7)%1300 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			var ladder Snapshot
			const n = 20000
			inserted, moved, smallest := 0, 0, n
			for i := 0; inserted < n; i++ {
				size := c.batch(i)
				ladder, _ = ladder.Fold(randomCubes(rng, size))
				inserted += size
				smallest = min(smallest, size)
				if ladder.Len() != inserted {
					t.Fatalf("after %d: Len = %d", inserted, ladder.Len())
				}
				rungs := ladder.rungs
				for ri, r := range rungs {
					if ri+1 < len(rungs) && r.Len() < 2*rungs[ri+1].Len() {
						t.Fatalf("after %d: rung %d has %d entries, the next %d", inserted, ri, r.Len(), rungs[ri+1].Len())
					}
				}
				k := len(rungs)
				if last := rungs[k-1].Len(); last < smallest {
					t.Fatalf("after %d: last rung holds %d < the smallest fold's %d", inserted, last, smallest)
				}
				if bound := bits.Len(uint((inserted-1)/smallest)) + 1; k > bound {
					t.Fatalf("after %d: %d rungs, bound %d", inserted, k, bound)
				}
				// Every fold builds the last rung; the ones above it are
				// shared with the ladder before, already checked.
				moved += rungs[k-1].Len()
				if err := rungs[k-1].Validate(); err != nil {
					t.Fatalf("after %d: %v", inserted, err)
				}
			}
			if perEntry, bound := float64(moved)/float64(inserted), math.Log2(float64(inserted)); perEntry > bound {
				t.Fatalf("folds moved %.1f entries per insert, over log2 n = %.1f", perEntry, bound)
			}
		})
	}
}

// TestSearchReusedOutSlice is the regression satellite: Search with a
// reused (non-empty capacity, length reset) out slice must return
// exactly what a fresh slice returns, for both the plain R-tree and
// the dynamic index.
func TestSearchReusedOutSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	entries := randomCubes(rng, 2000)
	tr := Build(slices.Clone(entries[:1600]))
	d := NewDynamic(tr, 0)
	d.InsertBatch(entries[1600:])

	var reusedTree, reusedDyn []int64
	for trial := 0; trial < 40; trial++ {
		q := randomCubes(rng, 1)[0].Cube

		fresh, _ := tr.Search(q, nil)
		reusedTree, _ = tr.Search(q, reusedTree[:0])
		if !slices.Equal(fresh, reusedTree) {
			t.Fatalf("trial %d: rtree reused-slice result differs: %v vs %v", trial, reusedTree, fresh)
		}

		freshDyn, _ := d.Search(q, nil)
		reusedDyn, _ = d.Search(q, reusedDyn[:0])
		if !slices.Equal(freshDyn, reusedDyn) {
			t.Fatalf("trial %d: dynamic reused-slice result differs: %v vs %v", trial, reusedDyn, freshDyn)
		}
	}
}

// TestSearchEmptyCubes pins geom.Cube.Intersects' semantics on the
// inlined overlap test: an inverted (empty) cube matches nothing,
// whether it is the query or an indexed entry.
func TestSearchEmptyCubes(t *testing.T) {
	world := geom.Cube{Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, MinT: 0, MaxT: 100}
	inverted := geom.Cube{Rect: geom.Rect{MinX: 60, MinY: 10, MaxX: 40, MaxY: 20}, MinT: 0, MaxT: 100}
	entries := []Entry{{Cube: inverted, ID: 1}, {Cube: world, ID: 2}}
	d := NewDynamic(Build(slices.Clone(entries)), 0)
	d.InsertBatch(entries)
	if got, _ := d.Search(world, nil); !slices.Equal(got, []int64{2, 2}) {
		t.Fatalf("world query = %v, want the two non-empty entries", got)
	}
	if got, _ := d.Search(inverted, nil); len(got) != 0 {
		t.Fatalf("inverted query = %v, want nothing", got)
	}
	if got, _ := Build(entries).Search(inverted, nil); len(got) != 0 {
		t.Fatalf("RTree inverted query = %v, want nothing", got)
	}
}
