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
	strSort(entries)
	return pack(entries)
}

// pack builds the tree over entries as they lie: leaves over runs of
// fanout entries, then levels of parents until one root.
func pack(entries []Entry) *RTree {
	t := &RTree{entries: entries, root: -1}
	n := len(entries)
	if n == 0 {
		return t
	}
	leaves := (n + fanout - 1) / fanout
	// Σ leaves/fanoutᵏ, plus one rounding per level.
	t.nodes = make([]node, 0, leaves+leaves/(fanout-1)+8)
	for lo := 0; lo < n; lo += fanout {
		hi := min(lo+fanout, n)
		cube := geom.EmptyCube()
		for i := lo; i < hi; i++ {
			cube = cube.Union(entries[i].Cube)
		}
		t.nodes = append(t.nodes, node{cube: cube, lo: lo, hi: hi, leaf: true})
	}
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
	}
	t.root = len(t.nodes) - 1
	return t
}

// strSort orders entries by the STR tiling. Each pass sorts packed
// 8-byte keys — high half a 32-bit fixed-point position of the entry's
// centre inside the axis's [min, max] over the whole input, low half the
// entry's input position — so the order is (coarse centre, position), a
// total order on any input, and the 56-byte entries move once, at the
// end. A coarse key is sound because the tiling is only a packing
// heuristic: node cubes are unions of their real children, so no search
// answer depends on it.
func strSort(entries []Entry) {
	n := len(entries)
	leaves := (n + fanout - 1) / fanout
	sx := int(math.Ceil(math.Cbrt(float64(leaves))))
	slabX := sx * sx * fanout // entries per x-slab
	slabY := sx * fanout      // entries per (x, y)-slab

	var ax [3]axis
	for i := range ax {
		ax[i] = axis{lo: math.Inf(1), hi: math.Inf(-1)}
	}
	for i := range entries {
		c := &entries[i].Cube
		ax[0].extend(c.Rect.MinX + c.Rect.MaxX)
		ax[1].extend(c.Rect.MinY + c.Rect.MaxY)
		ax[2].extend(c.MinT + c.MaxT)
	}
	for i := range ax {
		if d := ax[i].hi - ax[i].lo; d > 0 && d <= math.MaxFloat64 {
			ax[i].scale = math.MaxUint32 / d
		}
	}
	buf := make([]uint64, 2*n) // keys, then the radix passes' scratch
	keys, scratch := buf[:n], buf[n:]
	for i := range keys {
		r := &entries[i].Cube.Rect
		keys[i] = ax[0].key(r.MinX+r.MaxX)<<32 | uint64(i)
	}
	sortPacked(keys, scratch)
	for lo := 0; lo < n; lo += slabX {
		slab := keys[lo:min(lo+slabX, n)]
		for k, key := range slab {
			r := &entries[uint32(key)].Cube.Rect
			slab[k] = ax[1].key(r.MinY+r.MaxY)<<32 | key&math.MaxUint32
		}
		sortPacked(slab, scratch)
		for l2 := 0; l2 < len(slab); l2 += slabY {
			run := slab[l2:min(l2+slabY, len(slab))]
			for k, key := range run {
				c := &entries[uint32(key)].Cube
				run[k] = ax[2].key(c.MinT+c.MaxT)<<32 | key&math.MaxUint32
			}
			sortPacked(run, scratch)
		}
	}
	// Apply the permutation in place, cycle by cycle: position j takes
	// the entry keys[j]'s low half names; a visited position is marked.
	const visited = math.MaxUint64
	for i := range keys {
		if keys[i] == visited {
			continue
		}
		first := entries[i]
		j := i
		for {
			src := int(uint32(keys[j]))
			keys[j] = visited
			if src == i {
				entries[j] = first
				break
			}
			entries[j] = entries[src]
			j = src
		}
	}
}

// axis is the range of the finite centres along one axis and the factor
// that spreads it over 32 bits. scale stays 0 for an axis with one
// distinct centre or a range too wide to scale: every finite centre
// keys 0 and the order falls to the input position.
type axis struct{ lo, hi, scale float64 }

func (a *axis) extend(c float64) {
	if c-c == 0 { // finite
		a.lo, a.hi = min(a.lo, c), max(a.hi, c)
	}
}

// key maps a centre to its 32-bit position inside [lo, hi], monotone in
// c. Centres that are not finite get a definite place: -Inf first, +Inf
// and NaN (an unbounded cube's -Inf + +Inf) last.
func (a *axis) key(c float64) uint64 {
	switch f := (c - a.lo) * a.scale; {
	case f >= math.MaxUint32, c > a.hi, c != c:
		return math.MaxUint32
	case f > 0:
		return uint64(f)
	}
	return 0
}

// radixMin is the run length under which sortPacked hands the run to
// slices.Sort: clearing and scanning eight 256-counter histograms costs
// more than pdqsort on a short run of machine words (BenchmarkBuild read
// best at 128 of 16 … 8192).
const radixMin = 128

// sortPacked sorts keys ascending: an LSD radix sort, one byte a digit,
// that counts all eight digits in one scan and skips every digit on
// which all keys agree. scratch must be at least as long as keys.
func sortPacked(keys, scratch []uint64) {
	n := len(keys)
	if n < radixMin {
		slices.Sort(keys)
		return
	}
	var count [8][256]uint32
	for _, k := range keys {
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	src, dst := keys, scratch[:n]
	for d := range count {
		c := &count[d]
		if c[byte(src[0]>>(8*d))] == uint32(n) {
			continue
		}
		sum := uint32(0)
		for b, m := range c {
			c[b], sum = sum, sum+m
		}
		for _, k := range src {
			b := byte(k >> (8 * d))
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// Len returns the number of indexed entries.
func (t *RTree) Len() int { return len(t.entries) }

// overlaps is e.Intersects(*q) for a q already known to be non-empty,
// flat enough for the compiler to inline into the traversal loops.
func overlaps(e, q *geom.Cube) bool {
	return e.Rect.MinX <= q.Rect.MaxX && q.Rect.MinX <= e.Rect.MaxX &&
		e.Rect.MinY <= q.Rect.MaxY && q.Rect.MinY <= e.Rect.MaxY &&
		e.MinT <= q.MaxT && q.MinT <= e.MaxT && !e.IsEmpty()
}

// Search appends to out the IDs of all entries whose cubes intersect the
// query cube, in no particular order, and returns the result along with
// the number of nodes visited: every node whose cube was tested. The
// traversal is an explicit stack of nodes already known to intersect q;
// a child's cube is tested before it is pushed.
func (t *RTree) Search(q geom.Cube, out []int64) ([]int64, int) {
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
