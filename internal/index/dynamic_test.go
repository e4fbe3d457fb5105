package index

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"movingdb/internal/geom"
)

// TestDynamicSearchMatchesScan cross-checks the union search (rungs +
// tail) against a scan over all entries, at several splits between the
// bulk-loaded first rung and the inserted rest, including an empty
// first rung and nothing inserted.
func TestDynamicSearchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	entries := randomCubes(rng, 3000)
	for _, split := range []int{0, 1, 1500, 2999, 3000} {
		d := NewDynamic(Build(slices.Clone(entries[:split])), 0)
		d.InsertBatch(entries[split:])
		if d.Len() != len(entries) {
			t.Fatalf("split=%d: Len=%d", split, d.Len())
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

// TestDynamicMergeValidate: every rung of the ladder must pass the
// R-tree invariant checks across repeated folds, driven by inserting
// well past the fixed tail size.
func TestDynamicMergeValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewDynamic(Build(randomCubes(rng, 100)), 0)
	total := 100
	for round := 0; round < 40; round++ {
		batch := randomCubes(rng, 50+round)
		for i := range batch {
			batch[i].ID = int64(total + i) // keep ids distinct across rounds
		}
		d.InsertBatch(batch)
		total += len(batch)
		if err := d.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	rungs, tail, merges := d.Stats()
	if merges == 0 {
		t.Fatalf("%d inserts past a tail of %d must have merged rungs", total, tailCap)
	}
	if tail >= tailCap {
		t.Fatalf("tail not folded: %d entries", tail)
	}
	if rungs+tail != total || d.Len() != total {
		t.Fatalf("entries lost across folds: rungs %d + tail %d, Len %d, inserted %d", rungs, tail, d.Len(), total)
	}
}

// TestLadderInvariants checks the shape after every insert, for the
// single-entry inserts of one-unit drains and for mixed batch sizes: each rung at
// least twice the size of the next and the last at least a full tail —
// so every rung outweighs everything after it and the rung count is at
// most ⌈log₂(n / tailCap)⌉ + 1 — the tail below tailCap, nothing lost,
// and every rung a valid tree. It also pins the amortisation: the
// entries moved by all folds together stay within log₂ n per insert.
func TestLadderInvariants(t *testing.T) {
	for _, c := range []struct {
		name  string
		batch func(i int) int
	}{
		{"single", func(int) int { return 1 }},
		{"mixed", func(i int) int { return 1 + (i*i*7)%1300 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			d := NewDynamic(nil, 0)
			const n = 20000
			inserted, moved := 0, 0
			for i := 0; inserted < n; i++ {
				before := d.Snapshot().rungs
				d.InsertBatch(randomCubes(rng, c.batch(i)))
				inserted += c.batch(i)
				snap := d.Snapshot()
				if len(snap.tail) >= tailCap {
					t.Fatalf("after %d: tail holds %d", inserted, len(snap.tail))
				}
				if snap.Len() != inserted || d.Len() != inserted {
					t.Fatalf("after %d: Len = %d / %d", inserted, snap.Len(), d.Len())
				}
				for ri, r := range snap.rungs {
					if ri+1 < len(snap.rungs) && r.Len() < 2*snap.rungs[ri+1].Len() {
						t.Fatalf("after %d: rung %d has %d entries, the next %d", inserted, ri, r.Len(), snap.rungs[ri+1].Len())
					}
				}
				if k := len(snap.rungs); k > 0 {
					if last := snap.rungs[k-1].Len(); last < tailCap {
						t.Fatalf("after %d: last rung holds %d < tailCap", inserted, last)
					}
					if bound := bits.Len(uint((inserted-1)/tailCap)) + 1; k > bound {
						t.Fatalf("after %d: %d rungs, bound %d", inserted, k, bound)
					}
				}
				if k := len(snap.rungs); k > 0 && (len(before) < k || before[k-1] != snap.rungs[k-1]) {
					moved += snap.rungs[k-1].Len() // a fold built this rung
					if err := d.Validate(); err != nil {
						t.Fatalf("after %d: %v", inserted, err)
					}
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
// whether it is the query or an indexed entry, in a rung or in the tail.
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
