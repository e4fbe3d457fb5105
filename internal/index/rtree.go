// Package index provides a spatio-temporal index over the sliced
// representation: an R-tree in (x, y, t) space over the bounding cubes
// that the Section 4.2 data structures already store with every spatial
// unit. The paper itself defers indexing to related work ([TSPM98] in
// its bibliography); this package is the natural extension point a
// moving objects DBMS needs for selections like "which objects crossed
// window W during period P", and the benchmark harness uses it as an
// ablation against full scans.
package index

import (
	"fmt"
	"math"
	"slices"

	"movingdb/internal/geom"
)

// Entry is one indexed item: a bounding cube and the caller's payload
// identifier (object id, unit index, ...).
type Entry struct {
	Cube geom.Cube
	ID   int64
}

// RTree is a static R-tree built by sort-tile-recursive (STR) bulk
// loading. The tree is pointer-free in the spirit of the paper's data
// structures: nodes live in one slice and reference their children by
// index ranges.
type RTree struct {
	nodes   []node
	entries []Entry
	root    int
	height  int
}

const fanout = 16

type node struct {
	cube geom.Cube
	// leaf: entries[lo:hi]; inner: nodes[lo:hi].
	lo, hi int
	leaf   bool
}

// Build bulk-loads an R-tree over the entries using STR: sort by x,
// tile into vertical slabs, sort each slab by y, tile again, sort runs
// by t. Build takes ownership of entries and reorders the slice in
// place; the caller must not use it afterwards (every caller assembles
// the slice for this call, so a defensive copy would only be a second
// pass over 56-byte entries).
func Build(entries []Entry) *RTree {
	t := &RTree{entries: entries, root: -1}
	n := len(entries)
	if n == 0 {
		return t
	}
	strSort(entries)
	leaves := (n + fanout - 1) / fanout
	// Σ leaves/fanoutᵏ, plus one rounding per level.
	t.nodes = make([]node, 0, leaves+leaves/(fanout-1)+8)
	// Leaves over runs of fanout entries.
	for lo := 0; lo < n; lo += fanout {
		hi := min(lo+fanout, n)
		cube := geom.EmptyCube()
		for i := lo; i < hi; i++ {
			cube = cube.Union(entries[i].Cube)
		}
		t.nodes = append(t.nodes, node{cube: cube, lo: lo, hi: hi, leaf: true})
	}
	t.height = 1
	// Inner levels: a level is a contiguous run of nodes, so the
	// children of one parent are contiguous by construction.
	for first, end := 0, len(t.nodes); end-first > 1; first, end = end, len(t.nodes) {
		for lo := first; lo < end; lo += fanout {
			hi := min(lo+fanout, end)
			cube := geom.EmptyCube()
			for c := lo; c < hi; c++ {
				cube = cube.Union(t.nodes[c].cube)
			}
			t.nodes = append(t.nodes, node{cube: cube, lo: lo, hi: hi})
		}
		t.height++
	}
	t.root = len(t.nodes) - 1
	return t
}

// sortKey is what strSort sorts instead of the 56-byte entries: the
// centre along the pass's axis and the entry's position in the input.
type sortKey struct {
	c float64
	i int32
}

// strSort orders entries by the STR tiling. Each pass sorts 16-byte
// keys; the entries themselves move once, at the end.
func strSort(entries []Entry) {
	n := len(entries)
	leaves := (n + fanout - 1) / fanout
	sx := int(math.Ceil(math.Cbrt(float64(leaves))))
	slabX := sx * sx * fanout // entries per x-slab
	slabY := sx * fanout      // entries per (x, y)-slab

	keys := make([]sortKey, n)
	for i := range keys {
		keys[i] = sortKey{c: entries[i].Cube.Rect.MinX + entries[i].Cube.Rect.MaxX, i: int32(i)}
	}
	sortKeys(keys)
	for lo := 0; lo < n; lo += slabX {
		slab := keys[lo:min(lo+slabX, n)]
		for k := range slab {
			r := &entries[slab[k].i].Cube.Rect
			slab[k].c = r.MinY + r.MaxY
		}
		sortKeys(slab)
		for l2 := 0; l2 < len(slab); l2 += slabY {
			run := slab[l2:min(l2+slabY, len(slab))]
			for k := range run {
				c := &entries[run[k].i].Cube
				run[k].c = c.MinT + c.MaxT
			}
			sortKeys(run)
		}
	}
	// Apply the permutation in place, cycle by cycle: position j takes
	// the entry keys[j].i names; a visited position is marked -1.
	for i := range keys {
		if keys[i].i < 0 {
			continue
		}
		first := entries[i]
		j := i
		for {
			src := int(keys[j].i)
			keys[j].i = -1
			if src == i {
				entries[j] = first
				break
			}
			entries[j] = entries[src]
			j = src
		}
	}
}

// sortKeys orders by (centre, input position) — a total order, so the
// tiling is a function of the input alone.
func sortKeys(keys []sortKey) {
	slices.SortFunc(keys, func(a, b sortKey) int {
		switch {
		case a.c < b.c:
			return -1
		case a.c > b.c:
			return 1
		}
		return int(a.i - b.i)
	})
}

// Len returns the number of indexed entries.
func (t *RTree) Len() int { return len(t.entries) }

// Height returns the number of levels (0 for the empty tree).
func (t *RTree) Height() int {
	if t.root < 0 {
		return 0
	}
	return t.height
}

// Search appends to out the IDs of all entries whose cubes intersect the
// query cube and returns the result along with the number of nodes
// visited (for the scan-vs-index ablation). The appended region is
// sorted ascending (duplicates preserved), so refinement order, k-NN
// tie-breaking and cache keys derived from results are deterministic
// regardless of tree shape.
func (t *RTree) Search(q geom.Cube, out []int64) ([]int64, int) {
	start := len(out)
	out, visited := t.collect(q, out)
	slices.Sort(out[start:])
	return out, visited
}

// overlaps is e.Intersects(*q) for a q already known to be non-empty,
// flat enough for the compiler to inline into the traversal loops.
func overlaps(e, q *geom.Cube) bool {
	return e.Rect.MinX <= q.Rect.MaxX && q.Rect.MinX <= e.Rect.MaxX &&
		e.Rect.MinY <= q.Rect.MaxY && q.Rect.MinY <= e.Rect.MaxY &&
		e.MinT <= q.MaxT && q.MinT <= e.MaxT && !e.IsEmpty()
}

// collect is Search without the final sort: the union over a ladder of
// trees sorts once. The traversal is an explicit stack of nodes already
// known to intersect q; a child's cube is tested before it is pushed.
// visited counts every node whose cube was tested.
func (t *RTree) collect(q geom.Cube, out []int64) ([]int64, int) {
	if t.root < 0 || q.IsEmpty() {
		return out, 0
	}
	visited := 1
	if !overlaps(&t.nodes[t.root].cube, &q) {
		return out, visited
	}
	// A node pops before its children push, so the stack holds at most
	// (fanout-1)·height+1 nodes: 128 covers every tree an int32 entry
	// position can address, and append keeps a deeper one correct.
	var arena [128]int32
	stack := append(arena[:0], int32(t.root))
	for len(stack) > 0 {
		nd := &t.nodes[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		if nd.leaf {
			for i := nd.lo; i < nd.hi; i++ {
				if e := &t.entries[i]; overlaps(&e.Cube, &q) {
					out = append(out, e.ID)
				}
			}
			continue
		}
		visited += nd.hi - nd.lo
		for c := nd.lo; c < nd.hi; c++ {
			if overlaps(&t.nodes[c].cube, &q) {
				stack = append(stack, int32(c))
			}
		}
	}
	return out, visited
}

// Validate checks the structural invariants: every child cube is
// contained in its parent's cube and entry ranges tile the entry slice.
func (t *RTree) Validate() error {
	if t.root < 0 {
		if len(t.entries) != 0 {
			return fmt.Errorf("index: empty tree with %d entries", len(t.entries))
		}
		return nil
	}
	covered := make([]bool, len(t.entries))
	var rec func(ni int) error
	rec = func(ni int) error {
		nd := t.nodes[ni]
		if nd.leaf {
			for i := nd.lo; i < nd.hi; i++ {
				if covered[i] {
					return fmt.Errorf("index: entry %d in two leaves", i)
				}
				covered[i] = true
				if !contains(nd.cube, t.entries[i].Cube) {
					return fmt.Errorf("index: leaf cube does not cover entry %d", i)
				}
			}
			return nil
		}
		for c := nd.lo; c < nd.hi; c++ {
			if !contains(nd.cube, t.nodes[c].cube) {
				return fmt.Errorf("index: node %d does not cover child %d", ni, c)
			}
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(t.root); err != nil {
		return err
	}
	for i, c := range covered {
		if !c {
			return fmt.Errorf("index: entry %d not reachable", i)
		}
	}
	return nil
}

func contains(outer, inner geom.Cube) bool {
	return outer.Rect.MinX <= inner.Rect.MinX && outer.Rect.MaxX >= inner.Rect.MaxX &&
		outer.Rect.MinY <= inner.Rect.MinY && outer.Rect.MaxY >= inner.Rect.MaxY &&
		outer.MinT <= inner.MinT && outer.MaxT >= inner.MaxT
}
